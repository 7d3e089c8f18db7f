//! Differential property suite for the relaxed scheduler.
//!
//! `SchedMode::Relaxed` (the scheduler on one host thread) and
//! `SchedMode::RelaxedParallel` at every host-thread count promise to be
//! **bit-identical** to the stepped reference
//! `System::run_relaxed_stepped` at the same quantum and clock —
//! registers, cycles, instret, memory, and the exact *order* of every
//! device log (spike FIFO, console, progress), plus the shared RNG stream
//! and mutex contention counts. The reference steps one instruction at a
//! time on the whole-system state, with no superblocks, kernel spans or
//! waves, so the suite also cross-checks both batch tiers.
//!
//! The programs here are random but race-free by construction: every core
//! runs the same instruction sequence against its own scratch page
//! (core-disjoint memory traffic), while MMIO traffic — buffered exports
//! *and* shared-interactive reads (RNG draws, mutex try-acquire/release,
//! barrier-generation reads) — goes to the shared devices, where ordering
//! is exactly what the parallel commit protocol must reproduce.
//!
//! A companion repeated-run test serialises the complete observable final
//! state 8× under the threaded scheduler and asserts byte identity,
//! catching latent host-ordering races even when the host has one CPU.

use izhi_isa::asm::Program;
use izhi_isa::encode;
use izhi_isa::inst::{AluImmOp, AluOp, Inst, LoadOp, StoreOp};
use izhi_isa::reg::Reg;
use izhi_sim::{
    layout, FaultKind, FaultPlan, PerfCounters, SchedMode, SimError, System, SystemConfig,
    TimingModel, TrapCause,
};
use proptest::prelude::*;

/// Per-core scratch page (core id shifted into bits 12+ by the prelude).
const PAGE: u32 = 0x1000;

/// Base register holding `SCRATCH_BASE + core_id * PAGE`.
const BASE: Reg = Reg(8);

/// Base register holding `MMIO_BASE`.
const MMIO: Reg = Reg(7);

/// Prelude: x9 <- core id, x8 <- own scratch page, x7 <- MMIO base.
/// Generated instructions never write x7/x8, so memory traffic stays
/// core-disjoint and device traffic stays addressable.
fn prelude() -> Vec<Inst> {
    vec![
        Inst::Lui {
            rd: MMIO,
            imm: 0xF000_0000u32 as i32,
        },
        Inst::Load {
            op: LoadOp::Lw,
            rd: Reg(9),
            rs1: MMIO,
            imm: layout::MMIO_COREID as i32,
        },
        Inst::OpImm {
            op: AluImmOp::Slli,
            rd: Reg(9),
            rs1: Reg(9),
            imm: 12,
        },
        Inst::Lui {
            rd: BASE,
            imm: layout::SCRATCH_BASE as i32,
        },
        Inst::Op {
            op: AluOp::Add,
            rd: BASE,
            rs1: BASE,
            rs2: Reg(9),
        },
    ]
}

/// Any destination except the two stable base registers.
fn arb_rd() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(|r| {
        if r == BASE.0 || r == MMIO.0 {
            Reg(31)
        } else {
            Reg(r)
        }
    })
}

fn arb_inst() -> impl Strategy<Value = Inst> {
    let reg = (0u8..32).prop_map(Reg);
    let alu_op = prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Xor),
        Just(AluOp::Or),
        Just(AluOp::And),
        Just(AluOp::Sltu),
        Just(AluOp::Mul),
        Just(AluOp::Mulhu),
        Just(AluOp::Div),
        Just(AluOp::Remu),
    ];
    let load_op = prop_oneof![
        Just((LoadOp::Lw, 4u32)),
        Just((LoadOp::Lhu, 2)),
        Just((LoadOp::Lbu, 1)),
    ];
    let store_op = prop_oneof![
        Just((StoreOp::Sw, 4u32)),
        Just((StoreOp::Sh, 2)),
        Just((StoreOp::Sb, 1)),
    ];
    // Shared-interactive MMIO reads: RNG draw, mutex try-acquire, barrier
    // generation. All non-blocking, so random sequences cannot deadlock.
    let mmio_read = prop_oneof![
        Just(layout::MMIO_RAND),
        Just(layout::MMIO_MUTEX),
        Just(layout::MMIO_BARRIER),
        Just(layout::MMIO_CYCLE),
        Just(layout::MMIO_NCORES),
    ];
    // Buffered MMIO writes (spike log / progress / console) plus the
    // mutex release. Barrier *arrivals* are excluded: mismatched arrival
    // counts would park cores forever by design.
    let mmio_write = prop_oneof![
        Just((layout::MMIO_SPIKE_LOG, StoreOp::Sw)),
        Just((layout::MMIO_PROGRESS, StoreOp::Sw)),
        Just((layout::MMIO_CONSOLE, StoreOp::Sb)),
        Just((layout::MMIO_MUTEX, StoreOp::Sw)),
    ];
    prop_oneof![
        (arb_rd(), -2048i32..2048).prop_map(|(rd, imm)| Inst::OpImm {
            op: AluImmOp::Addi,
            rd,
            rs1: Reg(10),
            imm
        }),
        (arb_rd(), (-(1i32 << 19)..(1 << 19))).prop_map(|(rd, p)| Inst::Lui { rd, imm: p << 12 }),
        (alu_op, arb_rd(), reg.clone(), reg.clone()).prop_map(|(op, rd, rs1, rs2)| Inst::Op {
            op,
            rd,
            rs1,
            rs2
        }),
        (load_op, arb_rd(), 0i32..256).prop_map(|((op, size), rd, slot)| Inst::Load {
            op,
            rd,
            rs1: BASE,
            imm: slot * size as i32,
        }),
        (store_op, reg.clone(), 0i32..256).prop_map(|((op, size), rs2, slot)| Inst::Store {
            op,
            rs1: BASE,
            rs2,
            imm: slot * size as i32,
        }),
        (mmio_read, arb_rd()).prop_map(|(off, rd)| Inst::Load {
            op: LoadOp::Lw,
            rd,
            rs1: MMIO,
            imm: off as i32,
        }),
        (mmio_write, reg).prop_map(|((off, op), rs2)| Inst::Store {
            op,
            rs1: MMIO,
            rs2,
            imm: off as i32,
        }),
    ]
}

fn load(insts: &[Inst], n_cores: u32, sched: SchedMode) -> System {
    let cfg = SystemConfig {
        n_cores,
        sched,
        ..Default::default()
    };
    let mut sys = System::new(cfg);
    let mut addr = 0u32;
    for inst in prelude().iter().chain(insts) {
        sys.shared_mut().mem.write_u32(addr, encode(*inst));
        addr += 4;
    }
    sys.shared_mut().mem.write_u32(addr, encode(Inst::Ebreak));
    sys
}

fn run(insts: &[Inst], n_cores: u32, sched: SchedMode) -> System {
    let mut sys = load(insts, n_cores, sched);
    sys.run(10_000_000).expect("straight-line program trapped");
    sys
}

/// The stepped reference run of `insts`.
fn run_reference(insts: &[Inst], n_cores: u32, quantum: u64, timing: TimingModel) -> System {
    let mut sys = load(insts, n_cores, SchedMode::Exact);
    sys.run_relaxed_stepped(quantum, timing, 10_000_000)
        .expect("straight-line program trapped");
    sys
}

/// The relaxed scheduler's spellings at one quantum and clock: `Relaxed`,
/// and `RelaxedParallel` at 1, 2 and 4 host threads.
fn relaxed_modes(quantum: u64, timing: TimingModel) -> [SchedMode; 4] {
    let parallel = |host_threads| SchedMode::RelaxedParallel {
        quantum,
        host_threads,
        timing,
    };
    [
        SchedMode::Relaxed { quantum, timing },
        parallel(1),
        parallel(2),
        parallel(4),
    ]
}

/// Serialise everything observable about a finished system: registers,
/// pcs, clocks, every core's whole `PerfCounters`, every device log in
/// order, and the scratch pages the program could touch.
fn serialize_state(sys: &System) -> Vec<u8> {
    let mut out = Vec::new();
    for core in 0..sys.n_cores() {
        for r in 0..32u8 {
            out.extend_from_slice(&sys.core(core).reg(Reg(r)).to_le_bytes());
        }
        out.extend_from_slice(&sys.core(core).pc().to_le_bytes());
        out.extend_from_slice(&sys.core(core).time.to_le_bytes());
        out.extend_from_slice(format!("{:?}", sys.core(core).counters).as_bytes());
    }
    let dev = &sys.shared().dev;
    out.extend_from_slice(&dev.console);
    for w in &dev.spike_log {
        out.extend_from_slice(&w.to_le_bytes());
    }
    for w in &dev.progress {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(&dev.mutex_contention.to_le_bytes());
    out.extend_from_slice(&dev.barrier_generation().to_le_bytes());
    for word in 0..(sys.n_cores() as u32 * PAGE / 4) {
        let addr = layout::SCRATCH_BASE + 4 * word;
        out.extend_from_slice(&sys.shared().mem.read_u32(addr).unwrap_or(0).to_le_bytes());
    }
    out
}

/// One core's registers, pc, clock and counters.
fn core_state(sys: &System, core: usize) -> (Vec<u32>, u32, PerfCounters) {
    let c = sys.core(core);
    ((0..32).map(|r| c.reg(Reg(r))).collect(), c.pc(), c.counters)
}

/// A relaxed run must be bit-identical to the stepped reference: same
/// quantum and clock → same everything, at any host-thread count.
fn assert_bit_identical(reference: &System, sys: &System, sched: SchedMode) {
    let n = reference.n_cores();
    for core in 0..n {
        for r in 0..32u8 {
            prop_assert_eq!(
                reference.core(core).reg(Reg(r)),
                sys.core(core).reg(Reg(r)),
                "core {} x{} diverges under {:?}",
                core,
                r,
                sched
            );
        }
        prop_assert_eq!(
            reference.core(core).time,
            sys.core(core).time,
            "core {} cycles diverge under {:?}",
            core,
            sched
        );
        prop_assert_eq!(
            reference.core(core).counters,
            sys.core(core).counters,
            "core {} counters diverge under {:?}",
            core,
            sched
        );
    }
    prop_assert_eq!(
        serialize_state(reference),
        serialize_state(sys),
        "full state diverges under {:?}",
        sched
    );
}

/// The bit-identity contract holds **per timing model**: the Estimated
/// clock changes the interleaving (quanta are cycle-bounded) but every
/// host-thread count must still reproduce the stepped schedule of the
/// same timing model bit for bit.
fn check_all_host_thread_counts(insts: &[Inst], n_cores: u32) {
    for timing in [TimingModel::Unit, TimingModel::Estimated] {
        for quantum in [1u64, 7, 64] {
            let reference = run_reference(insts, n_cores, quantum, timing);
            for sched in relaxed_modes(quantum, timing) {
                assert_bit_identical(&reference, &run(insts, n_cores, sched), sched);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// One core: every relaxed run takes the coordinator, so the one-core
    /// schedule (rounds of one segment, deferred ops on the coordinator)
    /// must match the stepped reference too.
    #[test]
    fn parallel_matches_relaxed_one_core(
        insts in prop::collection::vec(arb_inst(), 1..80),
    ) {
        check_all_host_thread_counts(&insts, 1);
    }

    /// Two cores: random core-disjoint programs with interactive and
    /// buffered MMIO traffic, across quanta {1, 7, 64} × host threads
    /// {1, 2, 4}.
    #[test]
    fn parallel_matches_relaxed_two_cores(
        insts in prop::collection::vec(arb_inst(), 1..80),
    ) {
        check_all_host_thread_counts(&insts, 2);
    }

    /// Three cores: the worker pool is exercised with more cores than
    /// some of the tested host-thread counts (1 and 2), so core-to-worker
    /// assignment provably cannot leak into results.
    #[test]
    fn parallel_matches_relaxed_three_cores(
        insts in prop::collection::vec(arb_inst(), 1..60),
    ) {
        check_all_host_thread_counts(&insts, 3);
    }
}

/// The barrier program used by the fixed determinism checks: arrivals are
/// matched across cores, so parking and release are exercised too.
const BARRIER_MIX_SRC: &str = "
    _start: li   t0, 0xF0000004
            lw   t1, (t0)          # core id
            li   t2, 0x10000000
            slli t3, t1, 12
            add  t2, t2, t3        # own page
            li   s2, 0xF000001C    # spike log
            li   s3, 0xF0000020    # rng
            li   s4, 0xF000000C    # mutex
            li   s5, 0x10003000    # shared counter, outside every page
            li   s0, 40
    work:   lw   t4, (s3)          # rng draw (interactive)
            sw   t4, (t2)
            addi t2, t2, 4
            slli t5, t1, 16
            or   t5, t5, s0
            sw   t5, (s2)          # spike export (buffered)
    grab:   lw   t6, (s4)          # mutex try-acquire
            beqz t6, grab
            lw   t6, (s5)
            addi t6, t6, 1
            sw   t6, (s5)
            sw   x0, (s4)          # release
            addi s0, s0, -1
            bnez s0, work
            li   t4, 0xF0000010    # barrier
            lw   t5, (t4)
            sw   x0, (t4)          # arrive
    spin:   lw   t6, (t4)
            beq  t6, t5, spin
            lw   a0, (s5)          # all read the final counter
            ebreak
";

#[test]
fn repeated_parallel_runs_serialize_identically() {
    // 8 runs of the same threaded configuration must produce a
    // byte-identical final state — this catches latent host-ordering
    // races even on a single-CPU host, where thread preemption points
    // vary from run to run.
    let run_once = |host_threads: u32| {
        let asm = izhi_isa::Assembler::new()
            .assemble(BARRIER_MIX_SRC)
            .expect("asm");
        let mut sys = System::new(SystemConfig {
            n_cores: 3,
            sched: SchedMode::RelaxedParallel {
                quantum: 5,
                host_threads,
                timing: TimingModel::Unit,
            },
            ..Default::default()
        });
        assert!(sys.load_program(&asm));
        sys.run(10_000_000).expect("run");
        serialize_state(&sys)
    };
    // host_threads = 0 resolves via IZHI_HOST_THREADS (CI forces 2) or
    // host parallelism — byte identity must hold regardless.
    for host_threads in [0u32, 4] {
        let first = run_once(host_threads);
        for _ in 0..7 {
            assert_eq!(
                first,
                run_once(host_threads),
                "threaded run diverged at host_threads={host_threads}"
            );
        }
    }
}

/// `asm` loaded on a fresh `n_cores`-core system under `sched` and
/// `faults`.
fn load_asm(asm: &Program, n_cores: u32, sched: SchedMode, faults: FaultPlan) -> System {
    let mut sys = System::new(SystemConfig {
        n_cores,
        sched,
        faults,
        ..Default::default()
    });
    assert!(sys.load_program(asm));
    sys
}

/// The stepped reference run of `asm`, and how it ended.
fn reference_asm(
    asm: &Program,
    n_cores: u32,
    quantum: u64,
    timing: TimingModel,
    faults: FaultPlan,
    max_cycles: u64,
) -> (Result<(), SimError>, System) {
    let mut sys = load_asm(asm, n_cores, SchedMode::Exact, faults);
    let out = sys
        .run_relaxed_stepped(quantum, timing, max_cycles)
        .map(drop);
    (out, sys)
}

/// `System::run` of `asm` under `sched`, and how it ended.
fn run_asm(
    asm: &Program,
    n_cores: u32,
    sched: SchedMode,
    faults: FaultPlan,
    max_cycles: u64,
) -> (Result<(), SimError>, System) {
    let mut sys = load_asm(asm, n_cores, sched, faults);
    let out = sys.run(max_cycles).map(drop);
    (out, sys)
}

#[test]
fn barrier_mix_matches_relaxed_and_counts() {
    let asm = izhi_isa::Assembler::new()
        .assemble(BARRIER_MIX_SRC)
        .expect("asm");
    for timing in [TimingModel::Unit, TimingModel::Estimated] {
        for quantum in [1u64, 7, 64] {
            let (done, reference) =
                reference_asm(&asm, 3, quantum, timing, FaultPlan::none(), 10_000_000);
            done.expect("run");
            // The mutex-guarded counter proves mutual exclusion survived.
            assert_eq!(
                reference
                    .shared()
                    .mem
                    .read_u32(layout::SCRATCH_BASE + 0x3000),
                Some(120)
            );
            for sched in relaxed_modes(quantum, timing) {
                let (done, sys) = run_asm(&asm, 3, sched, FaultPlan::none(), 10_000_000);
                done.expect("run");
                assert_eq!(
                    serialize_state(&reference),
                    serialize_state(&sys),
                    "{sched:?}"
                );
            }
        }
    }
}

/// The commit pass's error exits. Every RNG draw, mutex try-acquire and
/// release and barrier arrival of [`BARRIER_MIX_SRC`] is a deferred op,
/// run alone on the coordinator; a guest trap fired there, and a cycle
/// budget that runs out among them, must surface as the same
/// [`SimError`] the stepped reference reports, on one core and on three,
/// on both clocks and at every host-thread count.
#[test]
fn deferred_op_traps_and_budgets_match_relaxed() {
    let asm = izhi_isa::Assembler::new()
        .assemble(BARRIER_MIX_SRC)
        .expect("asm");
    // The code up to the first loop iteration's RNG draw (`work`) and
    // mutex try-acquire (`grab`) runs straight through, so a core's
    // instret on reaching either is the label's word index.
    let deferred = ["work", "grab"].map(|label| {
        let pc = asm.symbol(label).expect("label");
        (pc, u64::from((pc - asm.entry) / 4))
    });
    for n in [1u32, 3] {
        for timing in [TimingModel::Unit, TimingModel::Estimated] {
            for quantum in [1u64, 7, 64] {
                for core in 0..n {
                    for (pc, at) in deferred {
                        let faults = FaultPlan::none().with(core, at, FaultKind::GuestTrap);
                        let (reference, _) =
                            reference_asm(&asm, n, quantum, timing, faults.clone(), 10_000_000);
                        let trap = SimError::Trap {
                            core,
                            cause: TrapCause::InjectedFault { pc, instret: at },
                        };
                        assert_eq!(
                            reference,
                            Err(trap),
                            "{n} cores {timing:?} quantum {quantum}"
                        );
                        for mode in relaxed_modes(quantum, timing) {
                            let (out, _) = run_asm(&asm, n, mode, faults.clone(), 10_000_000);
                            assert_eq!(
                                out, reference,
                                "{n} cores {mode:?} trap on core {core} at {pc:#x}"
                            );
                        }
                    }
                }
            }
            // Budgets across the run's last 48 cycles, which hold the
            // final mutex release and the barrier arrivals: runs that end
            // within the budget must be bit-identical, the rest must time
            // out alike. On a timeout, cores later in hart order than the
            // one that ran out may have run further in parallel, but every
            // core up to the first one past the budget must have stopped
            // where it did.
            for quantum in [7u64, 64] {
                let (done, sys) =
                    reference_asm(&asm, n, quantum, timing, FaultPlan::none(), 10_000_000);
                done.expect("unbudgeted run");
                let end = (0..n as usize).map(|c| sys.core(c).time).max().unwrap();
                let mut timeouts = 0;
                for max_cycles in end - 48..=end {
                    let (out, ref_sys) =
                        reference_asm(&asm, n, quantum, timing, FaultPlan::none(), max_cycles);
                    timeouts += usize::from(out.is_err());
                    for mode in relaxed_modes(quantum, timing) {
                        let (par, par_sys) = run_asm(&asm, n, mode, FaultPlan::none(), max_cycles);
                        assert_eq!(par, out, "{n} cores {mode:?} max_cycles {max_cycles}");
                        if par.is_ok() {
                            assert_eq!(
                                serialize_state(&ref_sys),
                                serialize_state(&par_sys),
                                "{n} cores {mode:?} max_cycles {max_cycles}"
                            );
                        } else {
                            let past = (0..n as usize)
                                .position(|c| ref_sys.core(c).time > max_cycles)
                                .expect("a timed-out run has a core past the budget");
                            for core in 0..=past {
                                assert_eq!(
                                    core_state(&ref_sys, core),
                                    core_state(&par_sys, core),
                                    "{n} cores {mode:?} max_cycles {max_cycles} core {core}"
                                );
                            }
                        }
                    }
                }
                assert!(
                    (1..49).contains(&timeouts),
                    "{n} cores {timing:?} quantum {quantum}: the window must hold both outcomes"
                );
                let commits = |max_cycles| {
                    let mode = SchedMode::Relaxed { quantum, timing };
                    let (_, sys) = run_asm(&asm, n, mode, FaultPlan::none(), max_cycles);
                    sys.parallel_stats().commit_instret
                };
                assert!(
                    commits(end - 48) < commits(end),
                    "{n} cores {timing:?} quantum {quantum}: the window must hold deferred ops"
                );
            }
        }
    }
}

/// Multi-generation barrier program. In generation `k` core `c` first
/// runs `8 * ((c + k) mod n) + 1` iterations of own-page work, so the
/// longest stretch — and with it the completing arrival — rotates
/// through every hart position as `k` advances (hart `(n − 1 − k) mod n`
/// completes generation `k` at every tested core count and quantum). Around each arrival the
/// core reads the generation (before arriving and after release), exports
/// spike words on both sides, and bumps a mutex-guarded counter shared by
/// all cores. Core 0's page holds the counter at its last word, outside
/// the words core 0 touches itself.
const MULTI_GEN_SRC: &str = "
    .equ GENS, 6
    _start: li   t0, 0xF0000004
            lw   s1, (t0)          # core id
            lw   s6, 4(t0)         # core count
            li   s7, 0x10000000
            slli t1, s1, 12
            add  s7, s7, t1        # own page
            li   s2, 0xF000001C    # spike log
            li   s4, 0xF000000C    # mutex
            li   s5, 0x10000FFC    # shared counter
            li   s8, 0xF0000010    # barrier
            li   s0, 0             # generation index k
    gen:    add  t1, s1, s0
    wrap:   blt  t1, s6, sized     # t1 = (core + k) mod n
            sub  t1, t1, s6
            j    wrap
    sized:  slli t1, t1, 3
            addi t1, t1, 1
    work:   lw   t2, 0x400(s7)
            add  t2, t2, t1
            sw   t2, 0x400(s7)
            addi t1, t1, -1
            bnez t1, work
            slli t3, s1, 16
            or   t3, t3, s0
            sw   t3, (s2)          # pre-arrival export
            lw   t5, (s8)          # generation before arriving
            slli t4, s0, 3
            add  t4, t4, s7
            sw   t5, (t4)
            sw   x0, (s8)          # arrive
    spin:   lw   t6, (s8)          # generation after release
            beq  t6, t5, spin
            sw   t6, 4(t4)
            ori  t3, t3, 0x100
            sw   t3, (s2)          # post-release export
    grab:   lw   t2, (s4)          # mutex try-acquire
            beqz t2, grab
            lw   t2, (s5)
            addi t2, t2, 1
            sw   t2, (s5)
            sw   x0, (s4)          # release
            addi s0, s0, 1
            li   t0, GENS
            bne  s0, t0, gen
            ebreak
";

#[test]
fn multi_generation_barriers_match_relaxed() {
    let asm = izhi_isa::Assembler::new()
        .assemble(MULTI_GEN_SRC)
        .expect("asm");
    for n_cores in [2u32, 3, 5] {
        for timing in [TimingModel::Unit, TimingModel::Estimated] {
            for quantum in [1u64, 7, 64, 1000, SchedMode::DEFAULT_QUANTUM] {
                let (done, reference) = reference_asm(
                    &asm,
                    n_cores,
                    quantum,
                    timing,
                    FaultPlan::none(),
                    10_000_000,
                );
                done.expect("run");
                let mem = &reference.shared().mem;
                assert_eq!(reference.shared().dev.barrier_generation(), 6);
                assert_eq!(
                    mem.read_u32(layout::SCRATCH_BASE + 0xFFC),
                    Some(6 * n_cores)
                );
                // Generation k is read before the k-th arrival, k + 1
                // after its release.
                for core in 0..n_cores {
                    for k in 0..6u32 {
                        let at = layout::SCRATCH_BASE + core * PAGE + 8 * k;
                        assert_eq!(mem.read_u32(at), Some(k));
                        assert_eq!(mem.read_u32(at + 4), Some(k + 1));
                    }
                }
                for sched in relaxed_modes(quantum, timing) {
                    let (done, sys) = run_asm(&asm, n_cores, sched, FaultPlan::none(), 10_000_000);
                    done.expect("run");
                    assert_eq!(
                        serialize_state(&reference),
                        serialize_state(&sys),
                        "{n_cores} cores {sched:?}"
                    );
                }
            }
        }
    }
}
