//! Property test for the exact scheduler's exits: on random two-core
//! programs that race on shared scratchpad and SDRAM words, touch the
//! MMIO devices (spike log, barrier, mutex, RNG, console, ROI, halt),
//! halt on either core first, sometimes trap on a misaligned or unmapped
//! access and run under random cycle budgets, `System::run` under
//! `SchedMode::Exact` must equal `System::run_stepped`, the schedule by
//! definition, one instruction per pick.
//!
//! Unlike `prop_sched.rs`, nothing keeps the cores apart: the exact
//! schedule must be exact for any program, races included. The outcome
//! (halt, timeout, or the trapping core and cause), every core's clock,
//! pc, registers and counters, the shared words, the device state, the
//! spike log and the console are compared, and each core's op-class
//! histogram must equal a tally of the ops the stepped schedule retires.

use izhi_isa::Assembler;
use izhi_sim::{layout, OpClass, RunExit, SimError, System, SystemConfig};
use proptest::prelude::*;
use std::fmt::Write as _;

/// Base of the shared SDRAM window (far from the code at address 0).
const SDRAM_WIN: u32 = 0x8000;
/// A second SDRAM base one D-cache size up, so the two windows evict
/// each other's lines and both cores contend for the bus.
const SDRAM_ALIAS: u32 = SDRAM_WIN + 4096;
/// An address in no region: accesses through it trap.
const UNMAPPED: u32 = 0x2000_0000;

/// Registers the generated ops may write: everything except the loop
/// counter (x5), the bases (x3, x4, x6, x7, x8) and the core id (x9).
const WRITABLE: [u8; 24] = [
    0, 1, 2, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30,
];

/// MMIO registers the generated loads read.
const MMIO_READS: [u32; 8] = [
    layout::MMIO_COREID,
    layout::MMIO_NCORES,
    layout::MMIO_MUTEX,
    layout::MMIO_BARRIER,
    layout::MMIO_CYCLE,
    layout::MMIO_RAND,
    layout::MMIO_STIM,
    layout::MMIO_PROGRESS,
];

/// MMIO registers the generated stores write (halting is its own op).
const MMIO_WRITES: [u32; 6] = [
    layout::MMIO_CONSOLE,
    layout::MMIO_MUTEX,
    layout::MMIO_BARRIER,
    layout::MMIO_SPIKE_LOG,
    layout::MMIO_PROGRESS,
    layout::MMIO_ROI,
];

/// One generated guest operation (rendered to assembly in [`render`]).
#[derive(Debug, Clone)]
enum Op {
    /// `add/sub/xor/mul/div/remu/slt rd, rs1, rs2`.
    Alu(u8, u8, u8, u8),
    /// `addi rd, rs1, imm`.
    Addi(u8, u8, i32),
    /// Load or store on a shared window: (store, width code, base
    /// index, slot, data register).
    Mem(bool, u8, u8, i32, u8),
    /// `lw rd, off(mmio)`.
    MmioLoad(u8, u32),
    /// `sw rs, off(mmio)`.
    MmioStore(u8, u32),
    /// `csrr rd, mcycle|minstret`.
    Csr(u8, bool),
    /// A forward branch over the next `skip` ops.
    Branch(u8, u8, u8),
    /// `ecall` (halts when a7 is 0 or 93, prints for 1-3).
    Ecall,
    /// A store to the MMIO halt register.
    Halt,
}

fn reg() -> impl Strategy<Value = u8> {
    0u8..32
}

fn rd() -> impl Strategy<Value = u8> {
    (0usize..WRITABLE.len()).prop_map(|i| WRITABLE[i])
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..7, rd(), reg(), reg()).prop_map(|(k, d, a, b)| Op::Alu(k, d, a, b)),
        (rd(), reg(), -2048i32..2048).prop_map(|(d, a, imm)| Op::Addi(d, a, imm)),
        // Shared-window traffic carries twice the weight of the rest.
        (any::<bool>(), 0u8..5, 0u8..3, 0i32..64, rd())
            .prop_map(|(st, w, b, s, r)| Op::Mem(st, w, b, s, r)),
        (any::<bool>(), 0u8..5, 0u8..3, 0i32..64, rd())
            .prop_map(|(st, w, b, s, r)| Op::Mem(st, w, b, s, r)),
        (rd(), 0usize..MMIO_READS.len()).prop_map(|(d, i)| Op::MmioLoad(d, MMIO_READS[i])),
        (reg(), 0usize..MMIO_WRITES.len()).prop_map(|(r, i)| Op::MmioStore(r, MMIO_WRITES[i])),
        (rd(), any::<bool>()).prop_map(|(d, c)| Op::Csr(d, c)),
        (reg(), reg(), 1u8..5).prop_map(|(a, b, skip)| Op::Branch(a, b, skip)),
    ]
}

/// One core's part: a loop of `iters` passes over `body`, with optional
/// rare ops (a trap, an early halt or an ecall) spliced in.
#[derive(Debug, Clone)]
struct Part {
    body: Vec<Op>,
    iters: u32,
}

fn arb_part() -> impl Strategy<Value = Part> {
    let rare = prop_oneof![
        Just(None),
        Just(None),
        Just(None),
        // Misaligned word access on the shared scratch window.
        (any::<bool>(), 0u8..3).prop_map(|(st, b)| Some(Op::Mem(st, 5, b, 0, 10))),
        // Access through the unmapped base.
        any::<bool>().prop_map(|st| Some(Op::Mem(st, 0, 3, 0, 10))),
        Just(Some(Op::Halt)),
        Just(Some(Op::Ecall)),
    ];
    (
        prop::collection::vec(arb_op(), 1..24),
        1u32..12,
        rare,
        0usize..64,
    )
        .prop_map(|(mut body, iters, rare, at)| {
            if let Some(op) = rare {
                let at = at % (body.len() + 1);
                body.insert(at, op);
            }
            Part { body, iters }
        })
}

/// Render one core's part as a labelled loop ending in `ebreak`.
fn render(out: &mut String, core: u32, part: &Part) {
    let n = part.body.len();
    writeln!(out, "core{core}: li x5, {}", part.iters).unwrap();
    writeln!(out, "loop{core}:").unwrap();
    for (i, op) in part.body.iter().enumerate() {
        writeln!(out, "l{core}_{i}:").unwrap();
        let line = match *op {
            Op::Alu(k, d, a, b) => {
                let m = ["add", "sub", "xor", "mul", "div", "remu", "slt"][k as usize];
                format!("{m} x{d}, x{a}, x{b}")
            }
            Op::Addi(d, a, imm) => format!("addi x{d}, x{a}, {imm}"),
            Op::Mem(store, width, base, slot, r) => {
                // Width codes 0-2 are word/half/byte; 3-4 load unsigned
                // halves/bytes (stores fall back to the signed spelling);
                // 5 is a word access at a misaligned offset.
                let (load, st, size, bias) = match width {
                    0 => ("lw", "sw", 4, 0),
                    1 => ("lh", "sh", 2, 0),
                    2 => ("lb", "sb", 1, 0),
                    3 => ("lhu", "sh", 2, 0),
                    4 => ("lbu", "sb", 1, 0),
                    _ => ("lw", "sw", 4, 2),
                };
                // Scratch window (x8), the two SDRAM windows (x7, x4),
                // and the unmapped base (x3).
                let base = [8, 7, 4, 3][base as usize];
                let off = slot * size + bias;
                if store {
                    format!("{st} x{r}, {off}(x{base})")
                } else {
                    format!("{load} x{r}, {off}(x{base})")
                }
            }
            Op::MmioLoad(d, off) => format!("lw x{d}, {off}(x6)"),
            Op::MmioStore(r, off) => format!("sw x{r}, {off}(x6)"),
            Op::Csr(d, cycle) => {
                format!("csrr x{d}, {}", if cycle { "mcycle" } else { "minstret" })
            }
            Op::Branch(a, b, skip) => {
                let target = (i + 1 + skip as usize).min(n);
                format!("beq x{a}, x{b}, l{core}_{target}")
            }
            Op::Ecall => "ecall".to_string(),
            Op::Halt => format!("sw x0, {}(x6)", layout::MMIO_HALT),
        };
        writeln!(out, "    {line}").unwrap();
    }
    writeln!(out, "l{core}_{n}:").unwrap();
    writeln!(out, "    addi x5, x5, -1").unwrap();
    writeln!(out, "    bnez x5, loop{core}").unwrap();
    writeln!(out, "    ebreak").unwrap();
}

/// The whole two-core program: a shared prelude sets the bases and
/// branches on the core id into each core's part.
fn program(p0: &Part, p1: &Part) -> String {
    let mut src = String::new();
    writeln!(src, "_start: li x6, {:#x}", layout::MMIO_BASE).unwrap();
    writeln!(src, "    lw x9, {}(x6)", layout::MMIO_COREID).unwrap();
    writeln!(src, "    li x8, {:#x}", layout::SCRATCH_BASE).unwrap();
    writeln!(src, "    li x7, {SDRAM_WIN:#x}").unwrap();
    writeln!(src, "    li x4, {SDRAM_ALIAS:#x}").unwrap();
    writeln!(src, "    li x3, {UNMAPPED:#x}").unwrap();
    writeln!(src, "    bnez x9, core1").unwrap();
    render(&mut src, 0, p0);
    render(&mut src, 1, p1);
    src
}

fn build(src: &str) -> System {
    let prog = Assembler::new()
        .assemble(src)
        .expect("generated program assembles");
    let mut sys = System::new(SystemConfig::max10_dual_core());
    assert!(sys.load_program(&prog));
    sys
}

fn assert_same(
    run: &System,
    stepped: &System,
    out_run: &Result<RunExit, SimError>,
    out_stepped: &Result<RunExit, SimError>,
    src: &str,
) {
    prop_assert_eq!(out_run, out_stepped, "outcome diverges on\n{}", src);
    for i in 0..2 {
        let (a, b) = (run.core(i), stepped.core(i));
        prop_assert_eq!(a.time, b.time, "core {} clock diverges on\n{}", i, src);
        prop_assert_eq!(a.pc(), b.pc(), "core {} pc diverges on\n{}", i, src);
        prop_assert_eq!(a.halted(), b.halted(), "core {} halt diverges", i);
        for r in 0..32u8 {
            prop_assert_eq!(
                a.reg(izhi_isa::Reg(r)),
                b.reg(izhi_isa::Reg(r)),
                "core {} x{} diverges on\n{}",
                i,
                r,
                src
            );
        }
        prop_assert_eq!(a.counters, b.counters, "core {} counters diverge", i);
        prop_assert_eq!(
            a.roi_counters(),
            b.roi_counters(),
            "core {} ROI diverges",
            i
        );
    }
    let words = |sys: &System, base: u32, len: u32| -> Vec<Option<u32>> {
        (0..len / 4)
            .map(|w| sys.shared().mem.read_u32(base + 4 * w))
            .collect()
    };
    for (base, len) in [
        (layout::SCRATCH_BASE, 256),
        (SDRAM_WIN, 256),
        (SDRAM_ALIAS, 256),
    ] {
        prop_assert_eq!(
            words(run, base, len),
            words(stepped, base, len),
            "shared window {:#x} diverges on\n{}",
            base,
            src
        );
    }
    let (da, db) = (&run.shared().dev, &stepped.shared().dev);
    prop_assert_eq!(
        &da.spike_log,
        &db.spike_log,
        "spike log diverges on\n{}",
        src
    );
    prop_assert_eq!(&da.progress, &db.progress, "progress words diverge");
    prop_assert_eq!(run.console(), stepped.console(), "console diverges");
    prop_assert_eq!(da.mutex_owner(), db.mutex_owner(), "mutex owner diverges");
    prop_assert_eq!(da.mutex_contention, db.mutex_contention);
    prop_assert_eq!(da.barrier_generation(), db.barrier_generation());
}

/// Per-core tally of `OpClass::of` over the ops the stepped schedule
/// retires under `budget`. It repeats `run_stepped`'s pick (live core
/// with the least time, lowest hart on ties), budget check and trap exit,
/// and reads each op from the system's own decoded-code table before
/// stepping it; a trapping op does not retire.
fn stepped_class_tally(src: &str, budget: u64) -> [[u64; OpClass::ALL.len()]; 2] {
    let mut sys = build(src);
    let mut tally = [[0; OpClass::ALL.len()]; 2];
    while let Some(i) = (0..2)
        .filter(|&i| !sys.core(i).halted())
        .min_by_key(|&i| sys.core(i).time)
    {
        if sys.core(i).time > budget {
            break;
        }
        let pc = sys.core(i).pc();
        let shared = sys.shared_mut();
        let op = shared.code.fetch(pc, &shared.mem).op;
        if sys.step_core(i).is_err() {
            break;
        }
        tally[i][OpClass::of(op) as usize] += 1;
    }
    tally
}

/// How a case ended, for the coverage tally: which core halted first on
/// a clean exit (the lower final clock), or the error and whether the
/// other core was still live (the fused loop's exits) or had halted (the
/// scan's).
fn exit_kind(sys: &System, out: &Result<RunExit, SimError>) -> &'static str {
    let live = |i: usize| !sys.core(i).halted();
    match out {
        Ok(_) if sys.core(0).time <= sys.core(1).time => "halt, core 0 first",
        Ok(_) => "halt, core 1 first",
        Err(SimError::Timeout { .. }) if live(0) && live(1) => "timeout, both live",
        Err(SimError::Timeout { .. }) => "timeout, one live",
        Err(SimError::Trap { core: 0, .. }) if live(1) => "trap on core 0, both live",
        Err(SimError::Trap { core: 1, .. }) if live(0) => "trap on core 1, both live",
        Err(SimError::Trap { .. }) => "trap, one live",
        Err(e) => panic!("unexpected outcome {e}"),
    }
}

/// The fused two-core loop and the scan it hands over to are
/// instruction-for-instruction the stepped schedule at every exit:
/// either core halting first, a timeout, or a trap on either core.
/// Every exit must be seen, so the property cannot pass vacuously.
#[test]
fn exact_run_equals_stepped_reference() {
    let cases = (
        arb_part(),
        arb_part(),
        prop_oneof![0u64..4000, Just(100_000_000u64)],
    );
    let mut rng = proptest::test_runner::TestRng::for_test("prop_exact");
    let mut seen = std::collections::BTreeMap::<&str, u32>::new();
    for _ in 0..400 {
        let (p0, p1, budget) = cases.generate(&mut rng);
        let src = program(&p0, &p1);
        let mut run = build(&src);
        let out_run = run.run(budget);
        let mut stepped = build(&src);
        let out_stepped = stepped.run_stepped(budget);
        assert_same(&run, &stepped, &out_run, &out_stepped, &src);
        *seen.entry(exit_kind(&stepped, &out_stepped)).or_default() += 1;
        let classes: Vec<_> = (0..2).map(|i| run.core(i).counters.op_classes()).collect();
        // Free both systems before the tally builds a third: with three
        // alive at once, each build here took about ten times as long.
        drop((run, stepped));
        for (i, tally) in stepped_class_tally(&src, budget).iter().enumerate() {
            prop_assert_eq!(
                &classes[i],
                tally,
                "core {} op classes diverge on\n{}",
                i,
                src
            );
        }
    }
    for kind in [
        "halt, core 0 first",
        "halt, core 1 first",
        "timeout, both live",
        "timeout, one live",
        "trap on core 0, both live",
        "trap on core 1, both live",
        "trap, one live",
    ] {
        assert!(
            seen.get(kind).copied().unwrap_or(0) >= 5,
            "too few cases end in {kind}: {seen:?}"
        );
    }
}
