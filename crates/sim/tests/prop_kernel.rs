//! Kernel-batch exactness property tests: executing a registered loop
//! span as a host batch (the native closed-form tier *and* the generic
//! tier) must be bit-identical to interpreting it — registers, memory,
//! the spike log, the cycle clock and the full performance-counter block
//! — under every relaxed sched × timing combination, across array
//! placements that exercise every screen (scratch/SDRAM, overlapping
//! sweeps, misaligned bases, region-crossing sweeps, MMIO targets),
//! under fault-plan triggers landing mid-loop, and across self-modifying
//! stores into the span's own code words, ahead of the store or already
//! run (which must invalidate the span).
//!
//! The programs are hand-assembled replicas of the engine's dense
//! phase-A scatter (the shape the native tier matches), a phase-B-shaped
//! loop over the custom neuromorphic ops, and generic counted loops the
//! structural audit accepts but the native matcher does not — so both
//! batch tiers are covered explicitly.

use izhi_core::params::IzhParams;
use izhi_isa::asm::Assembler;
use izhi_isa::encode;
use izhi_isa::inst::{AluImmOp, AluOp, BranchOp, Inst, LoadOp, StoreOp};
use izhi_isa::reg::Reg;
use izhi_sim::{
    layout, register_kernel_span, FaultKind, FaultPlan, SchedMode, SimError, SpanState, System,
    SystemConfig, TimingModel,
};
use proptest::prelude::*;

const A2: Reg = Reg(12);
const T1: Reg = Reg(6);
const T3: Reg = Reg(28);
const T4: Reg = Reg(29);
const T5: Reg = Reg(30);

/// `li rd, val` as the canonical lui+addi pair (hi20 rounds so the
/// sign-extended addi lands exactly).
fn li(rd: Reg, val: u32) -> [Inst; 2] {
    let hi = val.wrapping_add(0x800) & 0xFFFF_F000;
    let lo = val.wrapping_sub(hi) as i32;
    [
        Inst::Lui { rd, imm: hi as i32 },
        Inst::OpImm {
            op: AluImmOp::Addi,
            rd,
            rs1: rd,
            imm: lo,
        },
    ]
}

fn addi(rd: Reg, rs1: Reg, imm: i32) -> Inst {
    Inst::OpImm {
        op: AluImmOp::Addi,
        rd,
        rs1,
        imm,
    }
}

/// The engine's dense phase-A scatter, verbatim: the shape the native
/// tier matches. Entry at instruction 6 (pc 24).
fn dense_axpy_program(w_base: u32, i_base: u32, count: u32) -> (Vec<Inst>, u32) {
    let mut v = Vec::new();
    v.extend(li(A2, w_base));
    v.extend(li(T1, i_base));
    v.extend(li(T3, count));
    let entry = 4 * v.len() as u32;
    v.push(Inst::Load {
        op: LoadOp::Lh,
        rd: T4,
        rs1: A2,
        imm: 0,
    });
    v.push(Inst::Load {
        op: LoadOp::Lw,
        rd: T5,
        rs1: T1,
        imm: 0,
    });
    v.push(Inst::OpImm {
        op: AluImmOp::Slli,
        rd: T4,
        rs1: T4,
        imm: 8,
    });
    v.push(Inst::Op {
        op: AluOp::Add,
        rd: T5,
        rs1: T5,
        rs2: T4,
    });
    v.push(Inst::Store {
        op: StoreOp::Sw,
        rs1: T1,
        rs2: T5,
        imm: 0,
    });
    v.push(addi(A2, A2, 2));
    v.push(addi(T1, T1, 4));
    v.push(addi(T3, T3, -1));
    v.push(Inst::Branch {
        op: BranchOp::Ne,
        rs1: T3,
        rs2: Reg(0),
        imm: entry as i32 - 4 * v.len() as i32,
    });
    v.push(Inst::Ebreak);
    (v, entry)
}

/// Build a system, load `insts` at pc 0, seed the weight/accumulator
/// arrays, register the loop span, run. Returns the final system, the
/// run outcome and the registration outcome.
#[allow(clippy::too_many_arguments)]
fn run_dense(
    insts: &[Inst],
    entry: u32,
    sched: SchedMode,
    kernels: bool,
    faults: FaultPlan,
    weights: &[i16],
    w_base: u32,
    isyn: &[u32],
    i_base: u32,
) -> (System, Result<(), SimError>, bool) {
    let cfg = SystemConfig {
        n_cores: 1,
        sched,
        kernels,
        faults,
        ..Default::default()
    };
    let mut sys = System::new(cfg);
    for (k, inst) in insts.iter().enumerate() {
        sys.shared_mut().mem.write_u32(4 * k as u32, encode(*inst));
    }
    for (k, w) in weights.iter().enumerate() {
        sys.shared_mut()
            .mem
            .write_u16(w_base.wrapping_add(2 * k as u32), *w as u16);
    }
    for (k, w) in isyn.iter().enumerate() {
        sys.shared_mut()
            .mem
            .write_u32(i_base.wrapping_add(4 * k as u32), *w);
    }
    let registered = {
        let sh = sys.shared_mut();
        register_kernel_span(&mut sh.code, &sh.mem, entry).is_ok()
    };
    let res = sys.run(10_000_000).map(|_| ());
    (sys, res, registered)
}

/// The sched × timing combinations the scenario battery fans over.
fn modes() -> [SchedMode; 5] {
    let q = SchedMode::DEFAULT_QUANTUM;
    [
        SchedMode::Exact,
        SchedMode::Relaxed {
            quantum: q,
            timing: TimingModel::Unit,
        },
        SchedMode::Relaxed {
            quantum: q,
            timing: TimingModel::Estimated,
        },
        SchedMode::RelaxedParallel {
            quantum: q,
            host_threads: 2,
            timing: TimingModel::Unit,
        },
        SchedMode::RelaxedParallel {
            quantum: q,
            host_threads: 2,
            timing: TimingModel::Estimated,
        },
    ]
}

/// Full single-core bit-identity: outcome, registers, clock, counters,
/// and the code + scratch + SDRAM-data windows the programs touch.
fn assert_identical(
    on: &(System, Result<(), SimError>),
    off: &(System, Result<(), SimError>),
    code_words: usize,
    tag: &str,
) {
    let ((on, on_res), (off, off_res)) = (on, off);
    assert_eq!(on_res, off_res, "{tag}: outcome diverges");
    for r in 0..32u8 {
        assert_eq!(
            on.core(0).reg(Reg(r)),
            off.core(0).reg(Reg(r)),
            "{tag}: x{r} diverges"
        );
    }
    assert_eq!(on.core(0).time, off.core(0).time, "{tag}: clock diverges");
    assert_eq!(on.core(0).pc(), off.core(0).pc(), "{tag}: pc diverges");
    assert_eq!(
        on.shared().dev.spike_log,
        off.shared().dev.spike_log,
        "{tag}: spike log diverges"
    );
    assert_eq!(
        on.core(0).counters,
        off.core(0).counters,
        "{tag}: counters diverge"
    );
    let scratch_size = on.shared().mem.scratch_size();
    let windows = [
        (0u32, 4 * code_words as u32),
        (layout::SCRATCH_BASE + 0x1000, layout::SCRATCH_BASE + 0x4800),
        (
            layout::SCRATCH_BASE + scratch_size - 0x200,
            layout::SCRATCH_BASE + scratch_size,
        ),
        (0x2000, 0x3800),
    ];
    for (lo, hi) in windows {
        let mut addr = lo;
        while addr < hi {
            assert_eq!(
                on.shared().mem.read_u32(addr),
                off.shared().mem.read_u32(addr),
                "{tag}: word {addr:#x} diverges"
            );
            addr += 4;
        }
    }
}

/// Array placements: every screen of the native tier and the generic
/// tier gets exercised, including ones that end in a trap (which must
/// then trap identically).
#[derive(Debug, Clone, Copy)]
enum Placement {
    ScratchDisjoint,
    SdramDisjoint,
    ScratchWeightsSdramIsyn,
    SdramWeightsScratchIsyn,
    /// Accumulator sweep overlapping the weight sweep (order-exactness).
    ScratchOverlap,
    /// Odd weight base: the first `lh` traps.
    MisalignedWeights,
    /// Accumulator sweep crossing the end of scratch mid-loop.
    CrossesScratchEnd,
}

fn arb_placement() -> impl Strategy<Value = Placement> {
    prop_oneof![
        Just(Placement::ScratchDisjoint),
        Just(Placement::SdramDisjoint),
        Just(Placement::ScratchWeightsSdramIsyn),
        Just(Placement::SdramWeightsScratchIsyn),
        Just(Placement::ScratchOverlap),
        Just(Placement::MisalignedWeights),
        Just(Placement::CrossesScratchEnd),
    ]
}

/// Resolve a placement to (weight base, accumulator base) for `count`
/// elements, given small aligned jitters.
fn bases(p: Placement, count: u32, w_off: u32, i_off: u32, scratch_size: u32) -> (u32, u32) {
    let s = layout::SCRATCH_BASE;
    match p {
        Placement::ScratchDisjoint => (s + 0x1000 + 2 * w_off, s + 0x3000 + 4 * i_off),
        Placement::SdramDisjoint => (0x2000 + 2 * w_off, 0x2C00 + 4 * i_off),
        Placement::ScratchWeightsSdramIsyn => (s + 0x1000 + 2 * w_off, 0x2C00 + 4 * i_off),
        Placement::SdramWeightsScratchIsyn => (0x2000 + 2 * w_off, s + 0x3000 + 4 * i_off),
        Placement::ScratchOverlap => {
            let w = s + 0x1000 + 2 * w_off;
            // Accumulator words start inside the live weight sweep.
            (w, (w + 2 * (i_off % count.max(1))) & !3)
        }
        Placement::MisalignedWeights => (s + 0x1001 + 2 * w_off, s + 0x3000 + 4 * i_off),
        Placement::CrossesScratchEnd => {
            // The store sweep runs off the end of scratch after ~8 words.
            (s + 0x1000 + 2 * w_off, s + scratch_size - 32)
        }
    }
}

/// Where the phase-B replica's `nmpn` stores its updated VU word.
#[derive(Debug, Clone, Copy)]
enum NmpnTarget {
    Scratch,
    Sdram,
    /// A half-word stride: the second iteration's `nmpn` — the first
    /// one inside a kernel batch — traps misaligned.
    Misaligned,
    /// The MMIO spike log: every `nmpn` store is a device write, which
    /// the batch tiers defer to the interpreter.
    SpikeLog,
}

/// (first store address, per-iteration stride) of an `nmpn` target.
fn nmpn_target(t: NmpnTarget) -> (u32, u32) {
    let s = layout::SCRATCH_BASE;
    match t {
        NmpnTarget::Scratch => (s + 0x2800, 4),
        NmpnTarget::Sdram => (0x2000, 4),
        NmpnTarget::Misaligned => (s + 0x2800, 2),
        NmpnTarget::SpikeLog => (layout::MMIO_BASE + layout::MMIO_SPIKE_LOG, 0),
    }
}

/// A counted loop shaped like the engine's NPU phase B: per neuron an
/// `nmldl` of its parameter pair, an `nmdec` of its synaptic current, two
/// `nmpn` half-steps storing through `target`, and a forward branch
/// around a spike export to the MMIO spike log. Parameters live at
/// scratch +0x1000 (8 bytes each), VU words at +0x2000, currents at
/// +0x3000, and the spike list grows from +0x4000. Returns the program
/// and its loop entry.
fn phase_b_program(count: u32, target: NmpnTarget) -> (izhi_isa::asm::Program, u32) {
    let s = layout::SCRATCH_BASE;
    let (vu_out, stride) = nmpn_target(target);
    let spike_log = layout::MMIO_BASE + layout::MMIO_SPIKE_LOG;
    let src = format!(
        "
        _start: li   s9, {params:#x}
                li   s5, {isyn:#x}
                li   s11, {vu:#x}
                li   s6, {vu_out:#x}
                li   s3, {stride}
                li   s8, {spikes:#x}
                li   s4, {spike_log:#x}
                li   s1, {count}
                li   s2, 7
                li   a3, 0
                li   t0, 1
                nmldh x0, t0, x0
        loop:   lw   a6, (s9)
                lw   a7, 4(s9)
                nmldl x0, a6, a7
                lw   a2, (s5)
                li   t6, 3
                nmdec a2, a2, t6
                lw   a6, (s11)
                sw   a2, (s5)
                add  a7, a2, x0
                add  a2, x0, s6
                nmpn a2, a6, a7
                add  t4, x0, a2
                add  a2, x0, s6
                nmpn a2, a6, a7
                or   t4, t4, a2
                addi s5, s5, 4
                addi s9, s9, 8
                addi s11, s11, 4
                beqz t4, quiet
                sh   a3, (s8)
                addi s8, s8, 2
                slli t5, s2, 16
                or   t5, t5, a3
                sw   t5, (s4)
        quiet:  addi a3, a3, 1
                add  s6, s6, s3
                bne  a3, s1, loop
                ebreak
        ",
        params = s + 0x1000,
        isyn = s + 0x3000,
        vu = s + 0x2000,
        spikes = s + 0x4000,
    );
    let prog = Assembler::new()
        .assemble(&src)
        .expect("phase-B replica assembles");
    let entry = prog.symbol("loop").expect("loop label");
    (prog, entry)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dense phase-A replica, kernels on vs off, across placements that
    /// drive the native tier, the generic tier and the defer/trap
    /// paths, under every battery mode.
    #[test]
    fn dense_axpy_kernels_on_off_bit_identical(
        placement in arb_placement(),
        count in 1u32..400,
        w_off in 0u32..64,
        i_off in 0u32..64,
        seed in any::<u64>(),
    ) {
        let scratch_size = SystemConfig::default().scratch_size;
        let (w_base, i_base) = bases(placement, count, w_off, i_off, scratch_size);
        let (insts, entry) = dense_axpy_program(w_base, i_base, count);
        // Cheap deterministic fill from the seed.
        let mut x = seed | 1;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        let weights: Vec<i16> = (0..count).map(|_| next() as i16).collect();
        let isyn: Vec<u32> = (0..count).map(|_| next()).collect();
        for mode in modes() {
            let run = |kernels: bool| {
                let (sys, res, registered) = run_dense(
                    &insts, entry, mode, kernels, FaultPlan::none(),
                    &weights, w_base & !1, &isyn, i_base & !3,
                );
                assert!(registered, "audit rejected the dense shape");
                (sys, res)
            };
            let on = run(true);
            let off = run(false);
            assert_identical(&on, &off, insts.len(), &format!("{placement:?} {mode:?}"));
        }
    }

    /// Fault-plan triggers landing in the interior of a kernel batch:
    /// the batch refuses any iteration that could cross the trigger, so
    /// the fault fires at the same retired instruction either way.
    #[test]
    fn fault_triggers_fire_identically_inside_kernel_batches(
        count in 8u32..300,
        at in 1u64..2500,
        kind in prop_oneof![Just(FaultKind::GuestTrap), Just(FaultKind::CorruptSpike(1))],
    ) {
        let (w_base, i_base) = (layout::SCRATCH_BASE + 0x1000, layout::SCRATCH_BASE + 0x3000);
        let (insts, entry) = dense_axpy_program(w_base, i_base, count);
        let weights: Vec<i16> = (0..count).map(|k| (k as i16).wrapping_mul(257)).collect();
        let isyn: Vec<u32> = (0..count).map(|k| k.wrapping_mul(0x9E37_79B9)).collect();
        for mode in modes() {
            let plan = FaultPlan::none().with(0, at, kind);
            let run = |kernels: bool| {
                let (sys, res, _) = run_dense(
                    &insts, entry, mode, kernels, plan.clone(),
                    &weights, w_base, &isyn, i_base,
                );
                (sys, res)
            };
            let on = run(true);
            let off = run(false);
            assert_identical(&on, &off, insts.len(), &format!("{mode:?} {kind:?}@{at}"));
        }
    }

    /// A generic counted loop (audit-accepted, native-matcher-rejected):
    /// the generic tier, with scratch loads/stores and ALU mix.
    #[test]
    fn generic_counted_loops_kernels_on_off_bit_identical(
        count in 1u32..200,
        stride in prop_oneof![Just(4u32), Just(8u32)],
        bias in -16i32..16,
    ) {
        // x10 accumulates, x11 walks scratch, x28 counts down.
        let mut v = Vec::new();
        v.extend(li(Reg(11), layout::SCRATCH_BASE + 0x1000));
        v.extend(li(T3, count));
        let entry = 4 * v.len() as u32;
        v.push(Inst::Load { op: LoadOp::Lw, rd: Reg(10), rs1: Reg(11), imm: 0 });
        v.push(addi(Reg(10), Reg(10), bias));
        v.push(Inst::Op { op: AluOp::Xor, rd: Reg(12), rs1: Reg(10), rs2: T3 });
        v.push(Inst::Store { op: StoreOp::Sw, rs1: Reg(11), rs2: Reg(12), imm: 0 });
        v.push(addi(Reg(11), Reg(11), stride as i32));
        v.push(addi(T3, T3, -1));
        v.push(Inst::Branch {
            op: BranchOp::Ne,
            rs1: T3,
            rs2: Reg(0),
            imm: entry as i32 - 4 * v.len() as i32,
        });
        v.push(Inst::Ebreak);
        for mode in modes() {
            let run = |kernels: bool| {
                let (sys, res, registered) = run_dense(
                    &v, entry, mode, kernels, FaultPlan::none(), &[], 0x2000, &[], 0x2C00,
                );
                assert!(registered, "audit rejected the generic loop");
                (sys, res)
            };
            let on = run(true);
            let off = run(false);
            assert_identical(&on, &off, v.len(), &format!("generic {mode:?}"));
        }
    }

    /// The custom-op loop: `nmldl`/`nmdec`/`nmpn` through a kernel batch
    /// (the generic tier) with the `nmpn` store landing in scratch, in
    /// SDRAM, misaligned (a trap the batch raises itself) and on the MMIO
    /// spike log (a device write the batch defers). The first iteration
    /// runs before the back-edge first reaches the span entry, so every
    /// case loops at least twice.
    #[test]
    fn phase_b_custom_op_loops_kernels_on_off_bit_identical(
        count in 2u32..100,
        target in prop_oneof![
            Just(NmpnTarget::Scratch),
            Just(NmpnTarget::Sdram),
            Just(NmpnTarget::Misaligned),
            Just(NmpnTarget::SpikeLog),
        ],
        seed in any::<u64>(),
    ) {
        let (prog, entry) = phase_b_program(count, target);
        let mut x = seed | 1;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        let kinds = [IzhParams::regular_spiking(), IzhParams::fast_spiking()];
        let params: Vec<(u32, u32)> = (0..count)
            .map(|_| kinds[next() as usize % 2].quantize().pack())
            .collect();
        let vu: Vec<u32> = (0..count).map(|_| next()).collect();
        let isyn: Vec<u32> = (0..count).map(|_| (next() as i32 >> 6) as u32).collect();
        let code_words = prog.segments.iter().map(|s| s.data.len() / 4).sum();
        for mode in modes() {
            let run = |kernels: bool| {
                let mut sys = System::new(SystemConfig {
                    n_cores: 1,
                    sched: mode,
                    kernels,
                    ..Default::default()
                });
                assert!(sys.load_program(&prog));
                let s = layout::SCRATCH_BASE;
                let mem = &mut sys.shared_mut().mem;
                for k in 0..count {
                    let (p0, p1) = params[k as usize];
                    mem.write_u32(s + 0x1000 + 8 * k, p0);
                    mem.write_u32(s + 0x1004 + 8 * k, p1);
                    mem.write_u32(s + 0x2000 + 4 * k, vu[k as usize]);
                    mem.write_u32(s + 0x3000 + 4 * k, isyn[k as usize]);
                }
                let sh = sys.shared_mut();
                assert!(
                    register_kernel_span(&mut sh.code, &sh.mem, entry).is_ok(),
                    "audit rejected the phase-B replica"
                );
                let res = sys.run(10_000_000).map(|_| ());
                (sys, res)
            };
            let on = run(true);
            let off = run(false);
            assert_identical(&on, &off, code_words, &format!("phase B {target:?} {mode:?}"));
            // Every relaxed run enters the batch tier, even the one that
            // traps (the ops before the faulting `nmpn` retire in the
            // batch).
            let batched = on.0.core(0).kernel_instret > 0;
            assert_eq!(batched, mode != SchedMode::Exact, "phase B {target:?} {mode:?}");
        }
    }

    /// A loop whose body stores into its own span code every iteration,
    /// at `patch_slot`: a word that already ran this iteration (slot 0,
    /// the batch must end at the back-edge), the store's own word (slot
    /// 1) or a word ahead of the store (slot 2, the batch must end right
    /// after it). Writing back the identical word keeps the fingerprint
    /// valid (the span re-verifies Ready each entry); writing a nop makes
    /// re-verification fail and hands the loop to the interpreter. Both
    /// must stay bit-identical with kernels off.
    #[test]
    fn self_modifying_stores_into_span_stay_identical(
        count in 2u32..60,
        same_word in any::<bool>(),
        patch_slot in 0u32..3,
    ) {
        let mut v = Vec::new();
        v.extend(li(T3, count));
        v.extend(li(Reg(11), 0)); // patched below once entry is known
        v.extend(li(Reg(12), 0)); // likewise, once the body is known
        let entry = 4 * v.len() as u32;
        let body = [
            addi(Reg(13), Reg(13), 1),
            Inst::Store { op: StoreOp::Sw, rs1: Reg(11), rs2: Reg(12), imm: 0 },
            addi(Reg(14), Reg(14), 1),
            addi(T3, T3, -1),
            Inst::Branch { op: BranchOp::Ne, rs1: T3, rs2: Reg(0), imm: -16 },
        ];
        let patch = if same_word { body[patch_slot as usize] } else { addi(Reg(0), Reg(0), 0) };
        v[2..4].copy_from_slice(&li(Reg(11), entry + 4 * patch_slot));
        v[4..6].copy_from_slice(&li(Reg(12), encode(patch)));
        v.extend(body);
        v.push(Inst::Ebreak);
        for mode in modes() {
            let run = |kernels: bool| {
                let (sys, res, registered) = run_dense(
                    &v, entry, mode, kernels, FaultPlan::none(), &[], 0x2000, &[], 0x2C00,
                );
                assert!(registered, "audit rejected the self-modifying loop");
                (sys, res)
            };
            let on = run(true);
            let off = run(false);
            assert_identical(
                &on,
                &off,
                v.len(),
                &format!("smc slot={patch_slot} same_word={same_word} {mode:?}"),
            );
        }
    }
}

/// Deterministic lifecycle check: a store that actually changes a span's
/// code words must reject the span (re-verification fails) and the rest
/// of the run must interpret the patched code — while a same-word store
/// only cycles Dirty → Ready.
#[test]
fn span_rejects_after_real_code_change() {
    let run = |same_word: bool| {
        let body_inc = addi(Reg(13), Reg(13), 1);
        let patch = if same_word {
            body_inc
        } else {
            addi(Reg(0), Reg(0), 0)
        };
        let mut v = Vec::new();
        v.extend(li(T3, 5));
        v.extend(li(Reg(11), 0));
        v.extend(li(Reg(12), encode(patch)));
        let entry = 4 * v.len() as u32;
        v[2] = li(Reg(11), entry + 4)[0];
        v[3] = li(Reg(11), entry + 4)[1];
        v.push(Inst::Store {
            op: StoreOp::Sw,
            rs1: Reg(11),
            rs2: Reg(12),
            imm: 0,
        });
        v.push(body_inc);
        v.push(addi(T3, T3, -1));
        v.push(Inst::Branch {
            op: BranchOp::Ne,
            rs1: T3,
            rs2: Reg(0),
            imm: entry as i32 - 4 * v.len() as i32,
        });
        v.push(Inst::Ebreak);
        let sched = SchedMode::Relaxed {
            quantum: SchedMode::DEFAULT_QUANTUM,
            timing: TimingModel::Unit,
        };
        let (sys, res, registered) = run_dense(
            &v,
            entry,
            sched,
            true,
            FaultPlan::none(),
            &[],
            0x2000,
            &[],
            0x2C00,
        );
        assert!(registered);
        res.expect("run completes");
        let spans = sys.shared().code.kernel_spans().to_vec();
        assert_eq!(spans.len(), 1);
        (spans[0].state, sys.core(0).reg(Reg(13)))
    };
    // Same-word patch: the span survives (Ready or Dirty after the final
    // store) and the increment retires every iteration.
    let (state, x13) = run(true);
    assert_ne!(
        state,
        SpanState::Rejected,
        "same-word store must not reject"
    );
    assert_eq!(x13, 5);
    // Real patch: the store precedes the increment in program order, so
    // the slot is already a nop by the time it first executes — the
    // increment never retires — and re-verification rejects the span.
    let (state, x13) = run(false);
    assert_eq!(state, SpanState::Rejected, "changed code must reject");
    assert_eq!(x13, 0);
}
