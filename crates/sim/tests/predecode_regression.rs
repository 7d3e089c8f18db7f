//! Regression tests for the predecoded fast path: `System::run` (batched
//! predecoded execution) must be **bit-exact and cycle-exact** against
//! driving the very same schedule by hand with `System::step_core` —
//! identical registers, spike logs, console output, local clocks and
//! `PerfCounters` — on the guest ISA self-test battery and on the
//! dual-core barrier/mutex programs.
//!
//! The reference is `System::run_stepped`, the documented policy one
//! instruction per pick: always step the non-halted core with the
//! smallest local time, ties to the lowest hart id.

use izhi_isa::asm::Assembler;
use izhi_sim::{PerfCounters, System, SystemConfig};

/// Build two identical systems, run one with `run()` and the other by
/// single-stepping, and compare all architecturally visible state.
fn assert_run_matches_stepping(src: &str, cfg: SystemConfig) {
    let prog = Assembler::new().assemble(src).expect("asm");
    let mut fast = System::new(cfg.clone());
    assert!(fast.load_program(&prog));
    let mut slow = System::new(cfg);
    assert!(slow.load_program(&prog));

    let exit = fast.run(1_000_000_000).expect("batched run");
    slow.run_stepped(1_000_000_000).expect("reference run");

    for i in 0..fast.n_cores() {
        assert_eq!(
            fast.core(i).time,
            slow.core(i).time,
            "core {i}: local clock diverges"
        );
        let cf: PerfCounters = fast.core(i).counters;
        let cs: PerfCounters = slow.core(i).counters;
        assert_eq!(cf, cs, "core {i}: PerfCounters diverge");
        let rf: PerfCounters = fast.core(i).roi_counters();
        let rs: PerfCounters = slow.core(i).roi_counters();
        assert_eq!(rf, rs, "core {i}: ROI counters diverge");
        for r in 0..32u8 {
            assert_eq!(
                fast.core(i).reg(izhi_isa::Reg(r)),
                slow.core(i).reg(izhi_isa::Reg(r)),
                "core {i}: x{r} diverges"
            );
        }
    }
    assert_eq!(
        fast.shared().dev.spike_log,
        slow.shared().dev.spike_log,
        "spike rasters diverge"
    );
    assert_eq!(fast.console(), slow.console(), "console diverges");
    assert_eq!(
        exit.cycles,
        (0..slow.n_cores())
            .map(|i| slow.core(i).time)
            .max()
            .unwrap(),
        "wall-clock cycles diverge"
    );
}

#[test]
fn selftest_battery_is_bit_and_cycle_exact() {
    let src = izhi_programs_selftest_asm();
    assert_run_matches_stepping(&src, SystemConfig::default());
}

// The battery source is produced by izhi_programs, but izhi_sim cannot
// depend on it (dependency direction); keep a local ISA exercise program
// of comparable breadth instead, plus the real battery exercised from the
// programs crate's own tests.
fn izhi_programs_selftest_asm() -> String {
    r#"
    .data 0x1000
    tbl:    .word 3, 5, 7, 9
    .text
    _start: li   s0, 0          # checksum
            li   t0, -8
            li   t1, 3
            div  t2, t0, t1
            rem  t3, t0, t1
            add  s0, s0, t2
            add  s0, s0, t3
            la   a0, tbl
            li   t0, 0
    loop:   slli t1, t0, 2
            add  t1, t1, a0
            lw   t2, (t1)
            mul  s0, s0, t2
            addi t0, t0, 1
            li   t3, 4
            bne  t0, t3, loop
            li   t4, 0x10000000 # scratchpad
            sw   s0, (t4)
            lh   t5, (t4)
            lbu  t6, 1(t4)
            add  s0, s0, t5
            add  s0, s0, t6
            csrr s1, mcycle
            li   t0, 0xF0000020 # MMIO RNG
            lw   s2, (t0)
            lw   s3, (t0)
            xor  s2, s2, s3
            li   a0, 77
            li   a7, 1
            ecall               # console print
            ebreak
    "#
    .to_string()
}

const BARRIER_SRC: &str = "
    _start: li   t0, 0xF0000004
            lw   t1, (t0)          # core id
            li   t2, 0x10000000
            bnez t1, wait
            li   t3, 7777
            sw   t3, (t2)          # core 0 publishes
    wait:   li   t4, 0xF0000010    # barrier reg
            lw   t5, (t4)          # generation
            sw   x0, (t4)          # arrive
    spin:   lw   t6, (t4)
            beq  t6, t5, spin
            lw   a0, (t2)          # both read after release
            li   t0, 0xF000001C    # spike log: publish (id, value)
            slli t1, t1, 16
            or   t1, t1, a0
            sw   t1, (t0)
            ebreak
";

const MUTEX_SRC: &str = "
    .equ MUTEX, 0xF000000C
    .equ COUNTER, 0x10000000
    _start: li   s0, 200
            li   s1, MUTEX
            li   s2, COUNTER
    loop:   lw   t0, (s1)       # try acquire
            beqz t0, loop
            lw   t1, (s2)
            addi t1, t1, 1
            sw   t1, (s2)
            sw   x0, (s1)       # release
            addi s0, s0, -1
            bnez s0, loop
            ebreak
";

#[test]
fn dual_core_barrier_is_bit_and_cycle_exact() {
    assert_run_matches_stepping(BARRIER_SRC, SystemConfig::max10_dual_core());
}

#[test]
fn dual_core_mutex_is_bit_and_cycle_exact() {
    assert_run_matches_stepping(MUTEX_SRC, SystemConfig::max10_dual_core());
}

#[test]
fn triple_core_barrier_is_bit_and_cycle_exact() {
    assert_run_matches_stepping(BARRIER_SRC, SystemConfig::max10_triple_core_reduced());
}

#[test]
fn store_to_code_invalidates_predecoded_slot() {
    // Self-modifying code: overwrite the instruction at `patch` (addi t0,
    // t0, 1) with `addi t0, t0, 64` *after* it already executed once, then
    // run through it again. The predecode guard must re-decode the slot.
    let src = "
        _start: li   t0, 0
                li   t1, 2          # two passes
                la   t2, patch
                la   t4, new_insn
                lw   t3, (t4)
        again:
        patch:  addi t0, t0, 1
                addi t1, t1, -1
                sw   t3, (t2)       # patch the slot (store-to-code)
                bnez t1, again
                ebreak
        new_insn: .word 0x04028293  # addi t0, t0, 64
    ";
    let prog = Assembler::new().assemble(src).expect("asm");
    let mut sys = System::new(SystemConfig::default());
    assert!(sys.load_program(&prog));
    sys.run(100_000).expect("run");
    // Pass 1 executes the original (+1), pass 2 the patched (+64).
    assert_eq!(sys.core(0).reg(izhi_isa::Reg::T0), 65);
}

#[test]
fn out_of_window_fetch_traps_as_bad_fetch() {
    // Jump beyond the executable SDRAM window (the seed silently decoded
    // such pcs without caching; now they are a proper BadFetch).
    let window = {
        let sys = System::new(SystemConfig::default());
        sys.shared().code.sdram_limit()
    };
    let src = format!("_start: li t0, {window:#x}\n jr t0\n ebreak");
    let prog = Assembler::new().assemble(&src).expect("asm");
    let mut sys = System::new(SystemConfig::default());
    assert!(sys.load_program(&prog));
    match sys.run(10_000) {
        Err(izhi_sim::SimError::Trap {
            cause: izhi_sim::TrapCause::BadFetch { pc },
            ..
        }) => assert_eq!(pc, window),
        other => panic!("expected BadFetch, got {other:?}"),
    }
}

#[test]
fn unmapped_fetch_still_traps() {
    let src = "_start: li t0, 0x20000000\n jr t0\n ebreak";
    let prog = Assembler::new().assemble(src).expect("asm");
    let mut sys = System::new(SystemConfig::default());
    assert!(sys.load_program(&prog));
    assert!(matches!(
        sys.run(10_000),
        Err(izhi_sim::SimError::Trap {
            cause: izhi_sim::TrapCause::BadFetch { .. },
            ..
        })
    ));
}
