//! Cross-crate exactness regression: the batched predecoded `System::run`
//! must match `System::run_stepped` single-stepping on the real guest
//! workloads — the ISA self-test battery and a dual-core engine run —
//! with identical consoles, spike rasters and `PerfCounters`.

use izhi_isa::Assembler;
use izhi_programs::engine::{build_asm, EngineConfig, Variant, WorkloadResult};
use izhi_programs::net8020::Net8020Workload;
use izhi_programs::scenario::Workload as _;
use izhi_programs::selftest;
use izhi_sim::{FaultKind, FaultPlan, SchedMode, System, SystemConfig, TimingModel};

fn assert_identical(fast: &System, slow: &System) {
    for i in 0..fast.n_cores() {
        assert_eq!(fast.core(i).time, slow.core(i).time, "core {i} clock");
        assert_eq!(
            fast.core(i).counters,
            slow.core(i).counters,
            "core {i} counters"
        );
        assert_eq!(
            fast.core(i).roi_counters(),
            slow.core(i).roi_counters(),
            "core {i} ROI counters"
        );
    }
    assert_eq!(fast.shared().dev.spike_log, slow.shared().dev.spike_log);
    assert_eq!(fast.console(), slow.console());
}

#[test]
fn selftest_battery_run_matches_single_stepping() {
    let prog = Assembler::new()
        .assemble(&selftest::battery_asm())
        .expect("battery assembles");
    let mut fast = System::new(SystemConfig::default());
    assert!(fast.load_program(&prog));
    fast.run(50_000_000).expect("batched run");
    assert!(
        fast.console().ends_with('0'),
        "battery failed:\n{}",
        fast.console()
    );

    let mut slow = System::new(SystemConfig::default());
    assert!(slow.load_program(&prog));
    slow.run_stepped(50_000_000).expect("reference run");
    assert_identical(&fast, &slow);
}

/// The fused two-core loop hands off to a batched tail once one core
/// halts; an asymmetric program pins that transition (core 1 halts almost
/// immediately, core 0 keeps running through MMIO and SDRAM traffic).
#[test]
fn dual_core_asymmetric_halt_matches_single_stepping() {
    let src = "
        _start: li   t0, 0xF0000004
                lw   t1, (t0)          # core id
                bnez t1, done
                li   s0, 5000
                li   s1, 0x10000000
        loop:   lw   t2, (s1)
                addi t2, t2, 3
                sw   t2, (s1)
                li   t3, 0xF000001C
                andi t4, s0, 0xFF
                bnez t4, nospike
                sw   s0, (t3)          # occasional spike-log write
        nospike:
                addi s0, s0, -1
                bnez s0, loop
        done:   ebreak
    ";
    let prog = Assembler::new().assemble(src).expect("assembles");
    let mut fast = System::new(SystemConfig::max10_dual_core());
    assert!(fast.load_program(&prog));
    fast.run(10_000_000).expect("batched run");

    let mut slow = System::new(SystemConfig::max10_dual_core());
    assert!(slow.load_program(&prog));
    slow.run_stepped(10_000_000).expect("reference run");
    assert_identical(&fast, &slow);
}

/// Three cores exercise the general scan scheduler (the fused loop only
/// covers the two-core case) on a real barrier-coupled engine image.
#[test]
fn triple_core_engine_run_matches_single_stepping() {
    let wl = Net8020Workload::sized(24, 6, 40, 3, 5, Variant::Npu);
    let decay = (1.0 - 0.5 / wl.cfg.tau as f64) as f32;
    let asm = format!(
        ".equ DECAY_F32, {:#x}\n{}",
        decay.to_bits(),
        build_asm(&wl.cfg)
    );
    let prog = Assembler::new().assemble(&asm).expect("engine assembles");

    let mut cfg = wl.cfg.clone();
    cfg.system.n_cores = cfg.n_cores;
    let build = || {
        let mut sys = System::new(cfg.system.clone());
        assert!(sys.load_program(&prog));
        wl.image.load_into(&mut sys, &cfg);
        sys
    };
    let mut fast = build();
    fast.run(1_000_000_000).expect("batched run");
    let mut slow = build();
    slow.run_stepped(1_000_000_000).expect("reference run");
    assert_identical(&fast, &slow);
}

#[test]
fn dual_core_engine_run_matches_single_stepping() {
    // A real (small) 80-20 engine image on two cores: barrier-coupled
    // phases, spike-log traffic, ROI counters — the full hot path.
    let wl = Net8020Workload::sized(40, 10, 60, 2, 5, Variant::Npu);
    let decay = (1.0 - 0.5 / wl.cfg.tau as f64) as f32;
    let asm = format!(
        ".equ DECAY_F32, {:#x}\n{}",
        decay.to_bits(),
        build_asm(&wl.cfg)
    );
    let prog = Assembler::new().assemble(&asm).expect("engine assembles");

    let build = |cfg: &EngineConfig| {
        let mut sys = System::new(cfg.system.clone());
        assert!(sys.load_program(&prog));
        wl.image.load_into(&mut sys, cfg);
        sys
    };
    let mut cfg = wl.cfg.clone();
    cfg.system.n_cores = cfg.n_cores;

    let mut fast = build(&cfg);
    fast.run(1_000_000_000).expect("batched run");
    assert!(
        !fast.shared().dev.spike_log.is_empty(),
        "engine produced no spikes — comparison would be vacuous"
    );

    let mut slow = build(&cfg);
    slow.run_stepped(1_000_000_000).expect("reference run");
    assert_identical(&fast, &slow);
}

/// Scenario-level superblock exactness: the same dual-core engine image
/// with block fusion forced on vs off must produce identical spike
/// rasters, consoles, clocks and the full counter block — fusion is a
/// dispatch optimisation, never a semantic one.
#[test]
fn dual_core_engine_superblocks_on_off_bit_identical() {
    let wl = Net8020Workload::sized(40, 10, 60, 2, 5, Variant::Npu);
    let decay = (1.0 - 0.5 / wl.cfg.tau as f64) as f32;
    let asm = format!(
        ".equ DECAY_F32, {:#x}\n{}",
        decay.to_bits(),
        build_asm(&wl.cfg)
    );
    let prog = Assembler::new().assemble(&asm).expect("engine assembles");

    let run = |superblocks: bool| {
        let mut cfg = wl.cfg.clone();
        cfg.system.n_cores = cfg.n_cores;
        cfg.system.superblocks = superblocks;
        let mut sys = System::new(cfg.system.clone());
        assert!(sys.load_program(&prog));
        wl.image.load_into(&mut sys, &cfg);
        sys.run(1_000_000_000).expect("engine run");
        sys
    };
    let on = run(true);
    assert!(
        !on.shared().dev.spike_log.is_empty(),
        "engine produced no spikes — comparison would be vacuous"
    );
    let off = run(false);
    assert_identical(&on, &off);
}

/// Every relaxed sched × timing × host-thread combination the battery
/// fans over; kernel batches only engage under these (exact timing keeps
/// interpreting by design).
fn relaxed_modes() -> [SchedMode; 6] {
    let q = SchedMode::DEFAULT_QUANTUM;
    let relaxed = |timing| SchedMode::Relaxed { quantum: q, timing };
    let parallel = |host_threads, timing| SchedMode::RelaxedParallel {
        quantum: q,
        host_threads,
        timing,
    };
    [
        relaxed(TimingModel::Unit),
        relaxed(TimingModel::Estimated),
        parallel(1, TimingModel::Unit),
        parallel(2, TimingModel::Unit),
        parallel(1, TimingModel::Estimated),
        parallel(2, TimingModel::Estimated),
    ]
}

fn assert_results_identical(on: &WorkloadResult, off: &WorkloadResult, tag: &str) {
    assert_eq!(on.cycles, off.cycles, "{tag}: clock diverges");
    assert_eq!(on.instret, off.instret, "{tag}: instret diverges");
    assert_eq!(
        on.raster.spikes, off.raster.spikes,
        "{tag}: raster diverges"
    );
    assert_eq!(
        on.raster_hash(),
        off.raster_hash(),
        "{tag}: raster hash diverges"
    );
    assert_eq!(on.counters, off.counters, "{tag}: ROI counters diverge");
    assert_eq!(
        on.weight_hash, off.weight_hash,
        "{tag}: weight hash diverges"
    );
}

/// Scenario-level kernel exactness: the relaxed schedules batch-execute
/// the engine's registered loop spans (phase-A scatter natively, phase B
/// through the generic tier); toggling the kernels must be
/// invisible in every architectural observable — raster, clocks, retired
/// counts, the full ROI counter block — across both arithmetic variants
/// and every relaxed sched × timing × host-thread combination.
#[test]
fn dual_core_engine_kernels_on_off_bit_identical() {
    for variant in [Variant::Npu, Variant::BaseFixed] {
        for mode in relaxed_modes() {
            let run = |kernels: bool| {
                let mut wl = Net8020Workload::sized(40, 10, 60, 2, 5, variant);
                wl.cfg.system.sched = mode;
                wl.cfg.system.kernels = kernels;
                wl.run().expect("engine run")
            };
            let on = run(true);
            assert!(
                !on.raster.spikes.is_empty(),
                "engine produced no spikes — comparison would be vacuous"
            );
            let off = run(false);
            assert_results_identical(&on, &off, &format!("{variant:?} {mode:?}"));
        }
    }
}

/// Kernel batches under an armed fault plan: the batch entry refuses any
/// iteration whose retirement count could cross the trigger, so the fault
/// fires at exactly the same instruction with kernels on or off — whether
/// the plan corrupts spike traffic (MMIO stores defer to the interpreter,
/// which applies the corruption) or traps the guest outright.
#[test]
fn engine_kernels_identical_under_injected_faults() {
    let cases = [
        (0u32, 2_000u64, FaultKind::CorruptSpike(3)),
        (1, 120_000, FaultKind::CorruptSpike(1)),
        (0, 250_000, FaultKind::GuestTrap),
    ];
    for (core, at, kind) in cases {
        for mode in relaxed_modes() {
            let run = |kernels: bool| {
                let mut wl = Net8020Workload::sized(40, 10, 60, 2, 5, Variant::Npu);
                wl.cfg.system.sched = mode;
                wl.cfg.system.kernels = kernels;
                wl.cfg.system.faults = FaultPlan::none().with(core, at, kind);
                wl.run()
            };
            let tag = format!("{mode:?} {kind:?}@{at} core{core}");
            match (run(true), run(false)) {
                (Ok(on), Ok(off)) => assert_results_identical(&on, &off, &tag),
                (Err(on), Err(off)) => assert_eq!(on, off, "{tag}: errors diverge"),
                (on, off) => panic!("{tag}: outcome diverges: {on:?} vs {off:?}"),
            }
        }
    }
}
