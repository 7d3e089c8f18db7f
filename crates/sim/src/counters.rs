//! Per-core performance counters, the static cost model of the Estimated
//! timing policy, and the derived metrics of Tables V/VI.

use crate::predecode::MicroOp;

/// Coarse operation class of a retired instruction, as the Estimated
/// timing policy charges it. Every [`MicroOp`] maps to exactly one class
/// ([`OpClass::of`]); the classes mirror the units of the real pipeline
/// (ALU, branch/jump flush, memory ports, iterative divider, CSR file,
/// NPU/DCU datapath).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Fully bypassed single-cycle ALU work (incl. `lui`/`auipc`/`fence`).
    Alu,
    /// Branches and jumps (charged for the average EX-resolved flush).
    Branch,
    /// Loads of any width.
    Load,
    /// Stores of any width.
    Store,
    /// Single-cycle multiplier ops.
    Mul,
    /// Iterative divider ops (`div`/`rem` family).
    Div,
    /// CSR reads plus the environment ops (`ecall`/`ebreak`).
    Csr,
    /// Neuromorphic custom-0 ops (NPU + DCU; `nmpn` includes its store).
    Npu,
}

impl OpClass {
    /// Every class, in declaration order (the index each class occupies in
    /// the histogram of [`PerfCounters::op_classes`]).
    pub const ALL: [OpClass; 8] = [
        OpClass::Alu,
        OpClass::Branch,
        OpClass::Load,
        OpClass::Store,
        OpClass::Mul,
        OpClass::Div,
        OpClass::Csr,
        OpClass::Npu,
    ];

    /// Display label for the profile report.
    pub const fn label(self) -> &'static str {
        match self {
            OpClass::Alu => "alu",
            OpClass::Branch => "branch",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Mul => "mul",
            OpClass::Div => "div",
            OpClass::Csr => "csr",
            OpClass::Npu => "npu",
        }
    }

    /// The class of a decoded micro-op. Total: every op has a class, so
    /// no instruction can silently fall outside the cost model.
    pub const fn of(op: MicroOp) -> OpClass {
        match op {
            MicroOp::Lui
            | MicroOp::Auipc
            | MicroOp::Addi
            | MicroOp::Slti
            | MicroOp::Sltiu
            | MicroOp::Xori
            | MicroOp::Ori
            | MicroOp::Andi
            | MicroOp::Slli
            | MicroOp::Srli
            | MicroOp::Srai
            | MicroOp::Add
            | MicroOp::Sub
            | MicroOp::Sll
            | MicroOp::Slt
            | MicroOp::Sltu
            | MicroOp::Xor
            | MicroOp::Srl
            | MicroOp::Sra
            | MicroOp::Or
            | MicroOp::And
            | MicroOp::Fence => OpClass::Alu,
            MicroOp::Jal
            | MicroOp::Jalr
            | MicroOp::Beq
            | MicroOp::Bne
            | MicroOp::Blt
            | MicroOp::Bge
            | MicroOp::Bltu
            | MicroOp::Bgeu => OpClass::Branch,
            MicroOp::Lb | MicroOp::Lh | MicroOp::Lw | MicroOp::Lbu | MicroOp::Lhu => OpClass::Load,
            MicroOp::Sb | MicroOp::Sh | MicroOp::Sw => OpClass::Store,
            MicroOp::Mul | MicroOp::Mulh | MicroOp::Mulhsu | MicroOp::Mulhu => OpClass::Mul,
            MicroOp::Div | MicroOp::Divu | MicroOp::Rem | MicroOp::Remu => OpClass::Div,
            MicroOp::Ecall | MicroOp::Ebreak | MicroOp::Csr => OpClass::Csr,
            MicroOp::Nmldl | MicroOp::Nmldh | MicroOp::Nmpn | MicroOp::Nmdec => OpClass::Npu,
        }
    }
}

/// Static per-class cycle costs for the Estimated timing policy
/// (`TimingModel::Estimated`): each retired instruction charges its
/// class's cost, nothing else. The table is immutable shared data — the
/// policy reads [`CostTable::DEFAULT`] and never any mutable state, so
/// `RelaxedParallel` stays race-free and bit-identical across host-thread
/// counts.
///
/// The defaults approximate the exact model's *average* per-op cost on
/// the repo's SNN workloads (high cache hit rates, mostly-taken loop
/// branches, occasional load-use bubbles): they are a first-order static
/// collapse of the dynamic stall sources, tuned so estimated cycle counts
/// land within a small factor of exact ones (the `scenario_battery` suite
/// bounds every scenario's estimated/exact ratio).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostTable {
    /// Cycles per ALU-class op.
    pub alu: u64,
    /// Cycles per branch/jump (base cycle + average flush).
    pub branch: u64,
    /// Cycles per load (base cycle + average hazard/refill share).
    pub load: u64,
    /// Cycles per store (base cycle + average refill share).
    pub store: u64,
    /// Cycles per multiply.
    pub mul: u64,
    /// Cycles per divide/remainder (iterative divider latency).
    pub div: u64,
    /// Cycles per CSR/environment op.
    pub csr: u64,
    /// Cycles per neuromorphic op.
    pub npu: u64,
}

impl CostTable {
    /// The shared default table (see the type docs for the calibration
    /// rationale). `div` mirrors `SystemConfig::div_latency`'s default
    /// (16 extra cycles) plus the base cycle.
    pub const DEFAULT: CostTable = CostTable {
        alu: 1,
        branch: 2,
        load: 2,
        store: 2,
        mul: 1,
        div: 17,
        csr: 1,
        npu: 2,
    };

    /// Cost of one op class.
    pub const fn cost(&self, class: OpClass) -> u64 {
        match class {
            OpClass::Alu => self.alu,
            OpClass::Branch => self.branch,
            OpClass::Load => self.load,
            OpClass::Store => self.store,
            OpClass::Mul => self.mul,
            OpClass::Div => self.div,
            OpClass::Csr => self.csr,
            OpClass::Npu => self.npu,
        }
    }

    /// Cost of one decoded micro-op (class lookup + table read).
    pub const fn op_cost(&self, op: MicroOp) -> u64 {
        self.cost(OpClass::of(op))
    }
}

/// Raw event counters accumulated by a core. All counts are cumulative;
/// region-of-interest (ROI) measurement takes deltas between snapshots.
///
/// The per-class counts (`loads`, `stores`, `branches`, `muls`, `divs`,
/// `csr_ops` and the four nm counts) are bumped in the op's own arm of
/// the interpreter, or in bulk by the native kernel tier, so every tier
/// and scheduler counts them identically; [`PerfCounters::op_classes`]
/// derives the [`OpClass`] histogram from them. Counting in the arm
/// measured within noise: on a shared 2-vCPU Xeon VM, two-core exact
/// `net8020` ran 0.99-1.09× as long as without the branch, multiply,
/// divide and CSR counts (medians of six sets of 6-12 interleaved CLI
/// runs, whose pairs spread by up to ±30 %).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Core-local clock (cycles).
    pub cycles: u64,
    /// Instructions retired.
    pub instret: u64,
    /// Data-hazard stall cycles (load-use and nm-writeback bubbles).
    pub hazard_stalls: u64,
    /// Control-flow flush cycles (taken branches/jumps).
    pub flush_cycles: u64,
    /// Cycles stalled waiting for cache refills (both caches, incl. bus).
    pub mem_stall_cycles: u64,
    /// Cycles spent in the iterative divider beyond the first.
    pub div_stall_cycles: u64,
    /// I-cache hits / misses.
    pub icache_hits: u64,
    /// I-cache misses.
    pub icache_misses: u64,
    /// D-cache hits.
    pub dcache_hits: u64,
    /// D-cache misses.
    pub dcache_misses: u64,
    /// Data-memory accesses of any kind (cached, scratchpad, MMIO).
    pub mem_accesses: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired, `nmpn`'s write included.
    pub stores: u64,
    /// Branches and jumps retired, taken or not.
    pub branches: u64,
    /// Multiplies retired (`mul`, `mulh`, `mulhsu`, `mulhu`).
    pub muls: u64,
    /// Divides and remainders retired.
    pub divs: u64,
    /// CSR reads and environment ops (`ecall`, `ebreak`) retired.
    pub csr_ops: u64,
    /// `nmpn` instructions retired.
    pub nmpn: u64,
    /// `nmdec` instructions retired.
    pub nmdec: u64,
    /// `nmldl` instructions retired.
    pub nmldl: u64,
    /// `nmldh` instructions retired.
    pub nmldh: u64,
}

impl PerfCounters {
    /// Element-wise difference `self - base` (ROI delta).
    pub fn delta(&self, base: &PerfCounters) -> PerfCounters {
        PerfCounters {
            cycles: self.cycles - base.cycles,
            instret: self.instret - base.instret,
            hazard_stalls: self.hazard_stalls - base.hazard_stalls,
            flush_cycles: self.flush_cycles - base.flush_cycles,
            mem_stall_cycles: self.mem_stall_cycles - base.mem_stall_cycles,
            div_stall_cycles: self.div_stall_cycles - base.div_stall_cycles,
            icache_hits: self.icache_hits - base.icache_hits,
            icache_misses: self.icache_misses - base.icache_misses,
            dcache_hits: self.dcache_hits - base.dcache_hits,
            dcache_misses: self.dcache_misses - base.dcache_misses,
            mem_accesses: self.mem_accesses - base.mem_accesses,
            loads: self.loads - base.loads,
            stores: self.stores - base.stores,
            branches: self.branches - base.branches,
            muls: self.muls - base.muls,
            divs: self.divs - base.divs,
            csr_ops: self.csr_ops - base.csr_ops,
            nmpn: self.nmpn - base.nmpn,
            nmdec: self.nmdec - base.nmdec,
            nmldl: self.nmldl - base.nmldl,
            nmldh: self.nmldh - base.nmldh,
        }
    }

    /// Total neuromorphic instructions.
    pub fn nm_total(&self) -> u64 {
        self.nmpn + self.nmdec + self.nmldl + self.nmldh
    }

    /// Retired instructions by [`OpClass`], indexed in declaration order
    /// ([`OpClass::ALL`]); the histogram sums to `instret`. `nmpn`'s write
    /// is counted in `stores`, so it leaves the store class for the NPU
    /// class, and ALU is the rest of `instret`.
    pub fn op_classes(&self) -> [u64; OpClass::ALL.len()] {
        let mut h = [0; OpClass::ALL.len()];
        h[OpClass::Branch as usize] = self.branches;
        h[OpClass::Load as usize] = self.loads;
        h[OpClass::Store as usize] = self.stores - self.nmpn;
        h[OpClass::Mul as usize] = self.muls;
        h[OpClass::Div as usize] = self.divs;
        h[OpClass::Csr as usize] = self.csr_ops;
        h[OpClass::Npu as usize] = self.nm_total();
        h[OpClass::Alu as usize] = self.instret - h.iter().sum::<u64>();
        h
    }

    /// Derive the paper's reported metrics from these counters.
    pub fn metrics(&self, clock_hz: f64) -> Metrics {
        Metrics::from_counters(self, clock_hz)
    }
}

/// Number of equivalent base-ISA operations per full neuron update
/// (Eq. 3: 15 ops for the v/u update, plus 4 for the synaptic decay —
/// `N_IZHop = 19`, §VI-B).
pub const N_IZH_OP: u64 = 19;

/// The derived performance metrics reported in Tables V and VI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Cycles in the measured region.
    pub cycles: u64,
    /// Instructions retired in the measured region.
    pub instret: u64,
    /// Wall-clock seconds at the configured core frequency.
    pub exec_time_s: f64,
    /// Plain instructions-per-cycle (Eq. 8).
    pub ipc: f64,
    /// Effective IPC (Eq. 9): regular instructions plus `19 × updates`.
    pub ipc_eff: f64,
    /// Hazard-stall cycles as a percentage of all cycles.
    pub hazard_stall_pct: f64,
    /// All cache misses (I + D).
    pub all_cache_misses: u64,
    /// I-cache hit rate (%).
    pub icache_hit_pct: f64,
    /// D-cache hit rate (%).
    pub dcache_hit_pct: f64,
    /// Memory intensity: data accesses per 100 retired instructions.
    pub mem_intensity: f64,
}

impl Metrics {
    /// Compute all metrics from raw counters. The neuron-update count for
    /// `IPC_eff` is taken from the retired `nmpn` count; use
    /// [`Metrics::with_updates`] for baselines that update neurons with
    /// base-ISA instructions.
    pub fn from_counters(c: &PerfCounters, clock_hz: f64) -> Metrics {
        Self::with_updates(c, clock_hz, c.nmpn)
    }

    /// Compute metrics with an explicit neuron-update count (Eq. 9's
    /// `N_updates`).
    pub fn with_updates(c: &PerfCounters, clock_hz: f64, updates: u64) -> Metrics {
        let cyc = c.cycles.max(1) as f64;
        let reg_instr = c.instret - c.nm_total();
        let icache_total = c.icache_hits + c.icache_misses;
        let dcache_total = c.dcache_hits + c.dcache_misses;
        Metrics {
            cycles: c.cycles,
            instret: c.instret,
            exec_time_s: c.cycles as f64 / clock_hz,
            ipc: c.instret as f64 / cyc,
            ipc_eff: (reg_instr + updates * N_IZH_OP) as f64 / cyc,
            hazard_stall_pct: c.hazard_stalls as f64 / cyc * 100.0,
            all_cache_misses: c.icache_misses + c.dcache_misses,
            icache_hit_pct: if icache_total == 0 {
                100.0
            } else {
                c.icache_hits as f64 / icache_total as f64 * 100.0
            },
            dcache_hit_pct: if dcache_total == 0 {
                100.0
            } else {
                c.dcache_hits as f64 / dcache_total as f64 * 100.0
            },
            mem_intensity: if c.instret == 0 {
                0.0
            } else {
                c.mem_accesses as f64 / c.instret as f64 * 100.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_table_charges_every_decoded_op() {
        // Every micro-op the decoder can produce must cost at least one
        // cycle under the Estimated policy — an op that silently costs 0
        // would let estimated time stand still while instructions retire.
        for &op in MicroOp::ALL {
            let cost = CostTable::DEFAULT.op_cost(op);
            assert!(cost >= 1, "{op:?} costs {cost} cycles");
        }
        // `MicroOp::ALL` is hand-maintained; the enum is `repr(u8)` with
        // sequential discriminants, so listing ops in declaration order
        // with no gaps is exactly "covers every variant so far". A new
        // variant missing from ALL shows up as a discriminant gap the
        // moment any later op exists, and `OpClass::of`'s exhaustive
        // match flags the variant itself at compile time.
        for (i, &op) in MicroOp::ALL.iter().enumerate() {
            assert_eq!(
                op as usize, i,
                "MicroOp::ALL must list every variant in declaration order"
            );
        }
    }

    #[test]
    fn cost_table_distinguishes_the_op_classes() {
        let t = CostTable::DEFAULT;
        assert_eq!(t.op_cost(MicroOp::Add), t.alu);
        assert_eq!(t.op_cost(MicroOp::Beq), t.branch);
        assert_eq!(t.op_cost(MicroOp::Lw), t.load);
        assert_eq!(t.op_cost(MicroOp::Sw), t.store);
        assert_eq!(t.op_cost(MicroOp::Mulhu), t.mul);
        assert_eq!(t.op_cost(MicroOp::Rem), t.div);
        assert_eq!(t.op_cost(MicroOp::Csr), t.csr);
        assert_eq!(t.op_cost(MicroOp::Nmpn), t.npu);
        // The divider dominates, as in the exact model.
        assert!(t.div > t.load && t.div > t.branch);
    }

    fn sample() -> PerfCounters {
        PerfCounters {
            cycles: 1000,
            instret: 600,
            hazard_stalls: 50,
            icache_hits: 990,
            icache_misses: 10,
            dcache_hits: 180,
            dcache_misses: 20,
            mem_accesses: 210,
            nmpn: 40,
            nmdec: 40,
            nmldl: 10,
            nmldh: 1,
            ..Default::default()
        }
    }

    #[test]
    fn ipc_and_ipc_eff() {
        let m = sample().metrics(30e6);
        assert!((m.ipc - 0.6).abs() < 1e-12);
        // reg_instr = 600 - 91 = 509; eff = (509 + 40*19)/1000 = 1.269
        assert!((m.ipc_eff - 1.269).abs() < 1e-12);
        assert!(m.ipc_eff > 1.0, "IPC_eff can exceed 1 (paper §VI-B)");
    }

    #[test]
    fn percent_metrics() {
        let m = sample().metrics(30e6);
        assert!((m.hazard_stall_pct - 5.0).abs() < 1e-12);
        assert!((m.icache_hit_pct - 99.0).abs() < 1e-12);
        assert!((m.dcache_hit_pct - 90.0).abs() < 1e-12);
        assert!((m.mem_intensity - 35.0).abs() < 1e-12);
        assert_eq!(m.all_cache_misses, 30);
    }

    #[test]
    fn exec_time_uses_clock() {
        let m = sample().metrics(30e6);
        assert!((m.exec_time_s - 1000.0 / 30e6).abs() < 1e-18);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let a = sample();
        let mut b = a;
        b.cycles += 500;
        b.instret += 300;
        b.nmpn += 7;
        let d = b.delta(&a);
        assert_eq!(d.cycles, 500);
        assert_eq!(d.instret, 300);
        assert_eq!(d.nmpn, 7);
        assert_eq!(d.icache_hits, 0);
    }

    #[test]
    fn op_classes_split_instret() {
        let c = PerfCounters {
            instret: 100,
            loads: 20,
            stores: 15,
            branches: 12,
            muls: 3,
            divs: 2,
            csr_ops: 1,
            nmpn: 5,
            nmdec: 5,
            nmldl: 1,
            nmldh: 1,
            ..Default::default()
        };
        let h = c.op_classes();
        assert_eq!(h.iter().sum::<u64>(), c.instret);
        // nmpn's write leaves the store class for the NPU class.
        assert_eq!(h[OpClass::Store as usize], 10);
        assert_eq!(h[OpClass::Npu as usize], 12);
        // ALU is the rest: 100 - (12 + 20 + 10 + 3 + 2 + 1 + 12).
        assert_eq!(h[OpClass::Alu as usize], 40);
    }

    #[test]
    fn baseline_updates_override() {
        let mut c = sample();
        c.nmpn = 0;
        c.nmdec = 0;
        c.nmldl = 0;
        c.nmldh = 0;
        let m = Metrics::with_updates(&c, 30e6, 40);
        assert!((m.ipc_eff - (600.0 + 40.0 * 19.0 - 0.0) / 1000.0).abs() < 1.0);
    }
}
