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
//! The programs are replicas of the engine's three loops the native tier
//! matches — dense phase A, the NPU phase-B neuron and the sparse
//! phase-A CSR walk, each asserted to register as its shape — plus a
//! phase-B-shaped loop that stores `nmpn` results where the engine never
//! does, and generic counted loops the structural audit accepts but no
//! shape matches, so both batch tiers are covered explicitly. Wherever
//! the native screens pass, the runs must also show native retirements.

use izhi_core::params::IzhParams;
use izhi_isa::asm::Assembler;
use izhi_isa::encode;
use izhi_isa::inst::{AluImmOp, AluOp, BranchOp, Inst, LoadOp, StoreOp};
use izhi_isa::reg::Reg;
use izhi_sim::{
    layout, register_kernel_span, FaultKind, FaultPlan, NativeShape, SchedMode, SimError,
    SpanState, System, SystemConfig, TimingModel,
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

/// Full single-core bit-identity: outcome, registers, NM_REGS, clock,
/// counters, and the code + scratch + SDRAM-data windows the programs
/// touch.
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
    assert_eq!(
        on.core(0).nmregs(),
        off.core(0).nmregs(),
        "{tag}: NM_REGS diverge"
    );
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

/// The battery modes, plus quanta tight enough that a batch admits at
/// most an iteration or two: one core's final state does not show where
/// a quantum ended, but the quantum bound still cuts every batch.
fn modes_and_tight_quanta() -> Vec<SchedMode> {
    let mut v = modes().to_vec();
    for (quantum, timing) in [(50, TimingModel::Unit), (50, TimingModel::Estimated)] {
        v.push(SchedMode::Relaxed { quantum, timing });
    }
    v.push(SchedMode::RelaxedParallel {
        quantum: 97,
        host_threads: 2,
        timing: TimingModel::Estimated,
    });
    v
}

/// The relaxed modes at the default quantum: every screen-passing batch
/// has room for many iterations there.
fn roomy(mode: SchedMode) -> bool {
    match mode {
        SchedMode::Relaxed { quantum, .. } | SchedMode::RelaxedParallel { quantum, .. } => {
            quantum == SchedMode::DEFAULT_QUANTUM
        }
        SchedMode::Exact => false,
    }
}

/// The engine's NPU phase-B neuron loop, verbatim (`PHASE_B_NPU`), with
/// a prologue pointing its four sweeps at `params`, `drive`, `isyn` and
/// `vu`; the spike list grows from scratch +0x4000. Runs neurons
/// `0..count` and halts.
fn npu_neuron_program(count: u32, [params, drive, isyn, vu]: [u32; 4]) -> izhi_isa::asm::Program {
    let src = format!(
        "
        .equ TAU, 2
        .equ MMIO_SPIKE_LOG, {spike_log:#x}
        _start: li   s9, {params:#x}
                li   s10, {drive:#x}
                li   s5, {isyn:#x}
                li   s6, {vu:#x}
                li   s8, {spikes:#x}
                li   s7, 0
                li   s2, 7
                li   a3, 0
                li   s1, {count}
                li   a6, 1
                nmldh x0, a6, x0
        phaseB_neuron:
            lw   a6, (s9)            # {{b, a}}
            lw   a7, 4(s9)           # {{d, c}}
            lh   t5, (s10)           # thalamic drive (Q7.8), hoisted
            nmldl x0, a6, a7         # load neuron parameters
            lw   a2, (s5)            # Isyn (Q15.16)
            li   t6, TAU
            slli t5, t5, 8           # thalamic -> Q15.16
            nmdec a2, a2, t6         # synaptic decay (DCU)
            lw   a6, (s6)            # VU word (fills the nm result slot)
            sw   a2, (s5)            # persist decayed current
            add  a7, a2, t5          # total drive
            add  a2, x0, s6
            nmpn a2, a6, a7          # half-step 1 (stores VU, returns spike)
            lw   a6, (s6)            # reload updated VU (fills the nm slot)
            add  t4, x0, a2
            add  a2, x0, s6
            nmpn a2, a6, a7          # half-step 2
            addi s5, s5, 4           # pointer bumps fill the nm slot
            or   t4, t4, a2
            addi s9, s9, 8
            addi s10, s10, 2
            beqz t4, phaseB_no_spike
            sh   a3, (s8)
            addi s8, s8, 2
            addi s7, s7, 1
            slli t5, s2, 16
            or   t5, t5, a3
            li   t0, MMIO_SPIKE_LOG
            sw   t5, (t0)            # export (t, neuron) to the host raster
        phaseB_no_spike:
            addi a3, a3, 1
            addi s6, s6, 4
            bne  a3, s1, phaseB_neuron
            ebreak
        ",
        spike_log = layout::MMIO_BASE + layout::MMIO_SPIKE_LOG,
        spikes = layout::SCRATCH_BASE + 0x4000,
    );
    // Relaxed, as the engine assembles.
    Assembler::new()
        .relax(true)
        .assemble(&src)
        .expect("phase-B neuron replica assembles")
}

/// Where the NPU replica's four sweeps live.
#[derive(Debug, Clone, Copy)]
enum NpuPlacement {
    /// Everything in scratch.
    Scratch,
    /// The engine's map: thalamic drive in SDRAM, the rest in scratch.
    Engine,
    /// Currents and VU words in SDRAM as well.
    SdramState,
    /// The current sweep overlaps the VU sweep: a neuron's current is
    /// stored into a later neuron's VU word. The screens pass, but the
    /// rewritten words make which neurons spike data-dependent, so no
    /// native share is asserted.
    Aliased,
    /// A half-word VU base: the first `lw` of it traps.
    MisalignedVu,
    /// The VU sweep runs off the end of scratch mid-loop.
    CrossesScratchEnd,
    /// The thalamic drive reads MMIO registers that hold no device.
    MmioDrive,
}

impl NpuPlacement {
    /// Whether the native screens pass for a whole run and the spike
    /// density is the one drawn.
    fn screens_pass(self) -> bool {
        matches!(
            self,
            NpuPlacement::Scratch | NpuPlacement::Engine | NpuPlacement::SdramState
        )
    }

    /// `[params, drive, isyn, vu]` bases for `count` neurons.
    fn bases(self, count: u32, scratch_size: u32) -> [u32; 4] {
        let s = layout::SCRATCH_BASE;
        let (params, drive, isyn, vu) = (s + 0x1000, s + 0x1800, s + 0x3000, s + 0x2000);
        match self {
            NpuPlacement::Scratch => [params, drive, isyn, vu],
            NpuPlacement::Engine => [params, 0x2000, isyn, vu],
            NpuPlacement::SdramState => [params, 0x2000, 0x2800, 0x3000],
            NpuPlacement::Aliased => [params, drive, vu + 4 * (count / 2), vu],
            NpuPlacement::MisalignedVu => [params, drive, isyn, vu + 2],
            NpuPlacement::CrossesScratchEnd => {
                [params, drive, isyn, s + scratch_size - 4 * (count / 2)]
            }
            NpuPlacement::MmioDrive => [params, layout::MMIO_BASE + 0x30, isyn, vu],
        }
    }
}

fn arb_npu_placement() -> impl Strategy<Value = NpuPlacement> {
    prop_oneof![
        Just(NpuPlacement::Scratch),
        Just(NpuPlacement::Engine),
        Just(NpuPlacement::SdramState),
        Just(NpuPlacement::Aliased),
        Just(NpuPlacement::MisalignedVu),
        Just(NpuPlacement::CrossesScratchEnd),
        Just(NpuPlacement::MmioDrive),
    ]
}

/// A deterministic generator from `seed`.
fn lcg(seed: u64) -> impl FnMut() -> u32 {
    let mut x = seed | 1;
    move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as u32
    }
}

/// Build the NPU replica over `count` neurons at `placement`, each one
/// spiking (in the first or the second half-step) with probability
/// `density_pct`%, register its loop span and run it. Returns the system,
/// the outcome and the code length in words.
fn run_npu(
    placement: NpuPlacement,
    count: u32,
    density_pct: u32,
    seed: u64,
    mode: SchedMode,
    kernels: bool,
    faults: FaultPlan,
) -> ((System, Result<(), SimError>), usize) {
    let scratch_size = SystemConfig::default().scratch_size;
    let [params, drive, isyn, vu] = placement.bases(count, scratch_size);
    let prog = npu_neuron_program(count, [params, drive, isyn, vu]);
    let mut sys = System::new(SystemConfig {
        n_cores: 1,
        sched: mode,
        kernels,
        faults,
        ..Default::default()
    });
    assert!(sys.load_program(&prog));
    let mut next = lcg(seed);
    let kinds = [IzhParams::regular_spiking(), IzhParams::fast_spiking()];
    let q78 = |mv: i32| (mv * 256) as u16 as u32;
    let mem = &mut sys.shared_mut().mem;
    for k in 0..count {
        let (p0, p1) = kinds[next() as usize % 2].quantize().pack();
        mem.write_u32(params + 8 * k, p0);
        mem.write_u32(params + 8 * k + 4, p1);
        // Resting neurons stay below threshold across both half-steps
        // under a small drive; a spiker starts above it (first half-step)
        // or just under it (second).
        let word = if next() % 100 < density_pct {
            if next().is_multiple_of(2) {
                (q78(35) << 16) | q78(-13)
            } else {
                q78(29) << 16
            }
        } else {
            (q78(-65) << 16) | q78(-13)
        };
        // Placements that run off mapped memory only get partial arrays.
        if drive < layout::MMIO_BASE {
            mem.write_u16(drive + 2 * k, ((next() % 1024) as u16).wrapping_sub(512));
        }
        mem.write_u32(isyn + 4 * k, (next() % (8 << 16)).wrapping_sub(4 << 16));
        if vu + 4 * k + 4 <= layout::SCRATCH_BASE + scratch_size {
            mem.write_u32(vu + 4 * k, word);
        }
    }
    let sh = sys.shared_mut();
    let entry = prog.symbol("phaseB_neuron").expect("loop label");
    register_kernel_span(&mut sh.code, &sh.mem, entry).expect("audit accepts the replica");
    assert!(
        matches!(
            sh.code.kernel_spans()[0].native,
            Some(NativeShape::NpuNeuron { .. })
        ),
        "the replica must match the NpuNeuron shape"
    );
    let res = sys.run(10_000_000).map(|_| ());
    let code_words = prog.segments.iter().map(|s| s.data.len() / 4).sum();
    ((sys, res), code_words)
}

/// The engine's sparse phase-A CSR walk, verbatim (`PHASE_A_SPARSE`'s
/// `phaseA_inner`), inside a row loop over `rows` `(first, end)` edge
/// address pairs stored at scratch +0x4000; the accumulator base is the
/// word just below them (read from memory, so the code layout does not
/// depend on its value).
fn csr_scatter_program(rows: u32) -> izhi_isa::asm::Program {
    let src = format!(
        "
        _start: li   s0, {table:#x}
                li   s1, {rows}
                lw   t1, -4(s0)
        row:    lw   t2, (s0)
                lw   t3, 4(s0)
                addi s0, s0, 8
                beq  t2, t3, phaseA_row_done
        phaseA_inner:
            lh   t4, 2(t2)           # weight (Q7.8, high half)
            lhu  t5, (t2)            # target (low half)
            slli t4, t4, 8           # -> Q15.16 (fills the load-use slot)
            slli t5, t5, 2
            add  t5, t5, t1
            lw   a2, (t5)
            addi t2, t2, 4           # fills the load-use slot
            add  a2, a2, t4
            sw   a2, (t5)
            bne  t2, t3, phaseA_inner
        phaseA_row_done:
                addi s1, s1, -1
                bnez s1, row
                ebreak
        ",
        table = layout::SCRATCH_BASE + 0x4000,
    );
    // Relaxed, as the engine assembles.
    Assembler::new()
        .relax(true)
        .assemble(&src)
        .expect("CSR walk replica assembles")
}

/// Where the CSR replica's edges and accumulators live.
#[derive(Debug, Clone, Copy)]
enum CsrPlacement {
    /// The engine's map: edges in SDRAM, accumulators in scratch.
    Engine,
    /// Edges in scratch.
    ScratchEdges,
    /// Accumulators in SDRAM.
    SdramAccumulators,
    /// Accumulators on top of the edge words: a scatter store rewrites
    /// an edge the walk reads later.
    Aliased,
    /// A half-word-odd edge base: the first `lh` traps.
    MisalignedEdges,
    /// High targets land past the end of scratch: a trap mid-row.
    CrossesScratchEnd,
    /// Every target is an MMIO register that holds no device.
    MmioTargets,
    /// One edge adds into the walk's own first code word (turning `lh t4`
    /// into `lh t6`); the others land in SDRAM data.
    SpanCode,
}

impl CsrPlacement {
    /// Whether the native screens pass for a whole run.
    fn screens_pass(self) -> bool {
        matches!(
            self,
            CsrPlacement::Engine | CsrPlacement::ScratchEdges | CsrPlacement::SdramAccumulators
        )
    }
}

fn arb_csr_placement() -> impl Strategy<Value = CsrPlacement> {
    prop_oneof![
        Just(CsrPlacement::Engine),
        Just(CsrPlacement::ScratchEdges),
        Just(CsrPlacement::SdramAccumulators),
        Just(CsrPlacement::Aliased),
        Just(CsrPlacement::MisalignedEdges),
        Just(CsrPlacement::CrossesScratchEnd),
        Just(CsrPlacement::MmioTargets),
        Just(CsrPlacement::SpanCode),
    ]
}

/// Build the CSR replica over `edges` edges split into rows of 1-16
/// (empty rows included), register its walk and run it.
fn run_csr(
    placement: CsrPlacement,
    edges: u32,
    seed: u64,
    mode: SchedMode,
    kernels: bool,
    faults: FaultPlan,
) -> ((System, Result<(), SimError>), usize) {
    let s = layout::SCRATCH_BASE;
    let scratch_size = SystemConfig::default().scratch_size;
    let targets = 64u32;
    // The walk's entry does not depend on the row count (a one-word `li`).
    let entry = csr_scatter_program(1)
        .symbol("phaseA_inner")
        .expect("walk label");
    let (edge_base, isyn) = match placement {
        CsrPlacement::Engine => (0x2000, s + 0x1000),
        CsrPlacement::ScratchEdges => (s + 0x2000, s + 0x1000),
        CsrPlacement::SdramAccumulators => (0x2000, 0x3000),
        CsrPlacement::Aliased => (s + 0x2000, s + 0x2000),
        CsrPlacement::MisalignedEdges => (0x2001, s + 0x1000),
        CsrPlacement::CrossesScratchEnd => (0x2000, s + scratch_size - 4 * (targets / 2)),
        CsrPlacement::MmioTargets => (0x2000, layout::MMIO_BASE + 0x30),
        CsrPlacement::SpanCode => (0x2000, entry),
    };
    let mut next = lcg(seed);
    let mut words: Vec<u32> = (0..edges)
        .map(|_| {
            let target = match placement {
                // Offsets 0x30..0xF0 of the MMIO block.
                CsrPlacement::MmioTargets => next() % 48,
                // SDRAM data words from 0x2000 on, past the code.
                CsrPlacement::SpanCode => 0x800 + next() % targets,
                _ => next() % targets,
            };
            ((next() % 2048).wrapping_sub(1024) << 16) | target
        })
        .collect();
    if let CsrPlacement::SpanCode = placement {
        // Weight 1 adds 0x100: the `lh`'s rd goes from t4 to t6.
        words[edges as usize / 2] = 1 << 16;
    }
    let mut rows = Vec::new();
    let mut at = 0u32;
    while at < edges {
        let len = (next() % 17).min(edges - at);
        rows.push((edge_base + 4 * at, edge_base + 4 * (at + len)));
        at += len;
    }
    let prog = csr_scatter_program(rows.len() as u32);
    assert_eq!(prog.symbol("phaseA_inner"), Some(entry));
    let mut sys = System::new(SystemConfig {
        n_cores: 1,
        sched: mode,
        kernels,
        faults,
        ..Default::default()
    });
    assert!(sys.load_program(&prog));
    let mem = &mut sys.shared_mut().mem;
    mem.write_u32(s + 0x3FFC, isyn);
    for (k, w) in words.iter().enumerate() {
        mem.write_u32(edge_base.wrapping_add(4 * k as u32), *w);
    }
    for (k, (first, end)) in rows.iter().enumerate() {
        mem.write_u32(s + 0x4000 + 8 * k as u32, *first);
        mem.write_u32(s + 0x4004 + 8 * k as u32, *end);
    }
    if isyn < layout::MMIO_BASE && isyn != entry {
        for t in 0..targets / 2 {
            mem.write_u32(isyn + 4 * t, next());
        }
    }
    let sh = sys.shared_mut();
    register_kernel_span(&mut sh.code, &sh.mem, entry).expect("audit accepts the walk");
    assert!(
        matches!(
            sh.code.kernel_spans()[0].native,
            Some(NativeShape::CsrScatter { .. })
        ),
        "the replica must match the CsrScatter shape"
    );
    let res = sys.run(10_000_000).map(|_| ());
    let code_words = prog.segments.iter().map(|s| s.data.len() / 4).sum();
    ((sys, res), code_words)
}

/// The native-tier evidence a kernels-on run must show: native
/// retirements wherever the screens pass and a batch has room, never
/// more than the batches retired, and all of them when no iteration
/// needs the generic tier.
fn assert_native_share(sys: &System, expect_native: bool, all_native: bool, tag: &str) {
    let core = sys.core(0);
    assert!(
        core.native_instret <= core.kernel_instret,
        "{tag}: native {} > batched {}",
        core.native_instret,
        core.kernel_instret
    );
    if expect_native {
        assert!(core.native_instret > 0, "{tag}: no native retirement");
    }
    if all_native {
        assert_eq!(
            core.native_instret, core.kernel_instret,
            "{tag}: a batch left the native tier"
        );
    }
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
        let mut next = lcg(seed);
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
        let mut next = lcg(seed);
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

    /// The NPU phase-B neuron replica, kernels on vs off, across sweep
    /// placements and spike densities from none to every neuron, under
    /// every battery mode and tight quanta.
    #[test]
    fn npu_neuron_kernels_on_off_bit_identical(
        placement in arb_npu_placement(),
        count in 2u32..120,
        density_pct in prop_oneof![Just(0u32), Just(10), Just(50), Just(100)],
        seed in any::<u64>(),
    ) {
        for mode in modes_and_tight_quanta() {
            let run = |kernels| run_npu(placement, count, density_pct, seed, mode, kernels, FaultPlan::none());
            let (on, code_words) = run(true);
            let (off, _) = run(false);
            let tag = format!("NPU {placement:?} n={count} {density_pct}% {mode:?}");
            assert_identical(&on, &off, code_words, &tag);
            let quiet = density_pct == 0;
            assert_native_share(
                &on.0,
                roomy(mode) && placement.screens_pass() && density_pct < 100,
                roomy(mode) && placement.screens_pass() && quiet,
                &tag,
            );
        }
    }

    /// The sparse phase-A CSR replica, kernels on vs off, across edge and
    /// accumulator placements (per-edge screen failures mid-row
    /// included), under every battery mode and tight quanta.
    #[test]
    fn csr_scatter_kernels_on_off_bit_identical(
        placement in arb_csr_placement(),
        edges in 1u32..300,
        seed in any::<u64>(),
    ) {
        for mode in modes_and_tight_quanta() {
            let run = |kernels| run_csr(placement, edges, seed, mode, kernels, FaultPlan::none());
            let (on, code_words) = run(true);
            let (off, _) = run(false);
            let tag = format!("CSR {placement:?} e={edges} {mode:?}");
            assert_identical(&on, &off, code_words, &tag);
            let pass = roomy(mode) && placement.screens_pass();
            assert_native_share(&on.0, pass, pass, &tag);
        }
    }

    /// Fault-plan triggers landing inside native batches of both replicas:
    /// a native batch admits exactly the iterations the generic tier
    /// would, so the fault fires at the same retired instruction.
    #[test]
    fn fault_triggers_fire_identically_inside_native_batches(
        count in 8u32..100,
        at in 1u64..3000,
        kind in prop_oneof![Just(FaultKind::GuestTrap), Just(FaultKind::CorruptSpike(1))],
        seed in any::<u64>(),
    ) {
        for mode in modes_and_tight_quanta() {
            let plan = FaultPlan::none().with(0, at, kind);
            let npu = |kernels| {
                run_npu(NpuPlacement::Engine, count, 10, seed, mode, kernels, plan.clone())
            };
            let (on, code_words) = npu(true);
            let (off, _) = npu(false);
            assert_identical(&on, &off, code_words, &format!("NPU {mode:?} {kind:?}@{at}"));
            let csr = |kernels| run_csr(CsrPlacement::Engine, 3 * count, seed, mode, kernels, plan.clone());
            let (on, code_words) = csr(true);
            let (off, _) = csr(false);
            assert_identical(&on, &off, code_words, &format!("CSR {mode:?} {kind:?}@{at}"));
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
