//! One IzhiRISC-V core: functional RV32IM+Zicsr+custom-0 execution with the
//! 3-stage-pipeline timing annotations described in the crate docs.
//!
//! The hot loop runs on the predecoded instruction stream
//! ([`crate::predecode`]): fetch is a direct table index plus a
//! precomputed-set/tag I-cache probe, the hazard test is a shift into the
//! slot's source-register bitmask, and data accesses classify their region
//! exactly once, with cache-miss / MMIO / trap handling kept out of line.

use izhi_core::dcu::Dcu;
use izhi_core::nmregs::NmRegs;
use izhi_core::npu::NpUnit;
use izhi_fixed::Q15_16;
use izhi_isa::inst::{LoadOp, StoreOp};
use izhi_isa::reg::Reg;

use crate::cache::{Access, Cache};
use crate::counters::{CostTable, PerfCounters};
use crate::kernel::{KernelHeader, SpanState};
use crate::mem::layout;
use crate::mmio::{FaultKind, MmioEffect};
use crate::predecode::{MicroOp, PreInst, SlotState, MAX_SB, NO_DEST};
use crate::system::Shared;

/// A timing policy: how the local clock advances per retired instruction.
///
/// The interpreter ([`Core::exec_one`]) is monomorphised per policy, so
/// selecting one costs nothing per instruction:
///
/// * [`ExactTiming`] — the cycle-accurate model: cache/bus/hazard/flush/
///   divider state is consulted and charged per instruction (the
///   historical `TIMING = true` hot loop, bit for bit).
/// * [`UnitTiming`] — the relaxed determinism baseline: exactly one cycle
///   per retired instruction, no timing state touched (the historical
///   `TIMING = false` loop).
/// * [`EstimatedTiming`] — static per-op-class costs from
///   [`CostTable::DEFAULT`]: still no shared mutable state (safe under the
///   host-parallel scheduler, bit-identical at every host-thread count),
///   but the clock now approximates the exact model instead of counting
///   instructions.
pub(crate) trait Timing {
    /// Whether the full cycle-exact machinery (caches, shared bus,
    /// hazard/flush stalls, iterative divider) runs. Non-exact policies
    /// park cores at incomplete barrier rounds instead of simulating the
    /// spin loop.
    const EXACT: bool;
    /// Cycles charged for one retired `op` under a non-exact policy;
    /// never called when [`Timing::EXACT`] (the exact clock is advanced
    /// from the pipeline/memory models instead).
    fn op_cost(op: MicroOp) -> u64;
}

/// Cycle-accurate timing (see [`Timing`]).
pub(crate) struct ExactTiming;

impl Timing for ExactTiming {
    const EXACT: bool = true;

    #[inline(always)]
    fn op_cost(_op: MicroOp) -> u64 {
        1
    }
}

/// One cycle per retired instruction (see [`Timing`]).
pub(crate) struct UnitTiming;

impl Timing for UnitTiming {
    const EXACT: bool = false;

    #[inline(always)]
    fn op_cost(_op: MicroOp) -> u64 {
        1
    }
}

/// Static per-op-class costs from [`CostTable::DEFAULT`] (see [`Timing`]).
pub(crate) struct EstimatedTiming;

impl Timing for EstimatedTiming {
    const EXACT: bool = false;

    #[inline(always)]
    fn op_cost(op: MicroOp) -> u64 {
        CostTable::DEFAULT.op_cost(op)
    }
}

/// Everything one instruction needs from the world outside the core.
///
/// The interpreter ([`Core::exec_one`]) is generic over this trait so the
/// same hot loop monomorphises against two very different backings:
///
/// * [`Shared`] — the whole-system state used by the exact scheduler and
///   the stepped references `System::run_stepped` and
///   `System::run_relaxed_stepped` (the historical code path; every
///   method inlines to exactly the field accesses the loop made before the
///   trait existed);
/// * the per-core shard contexts of the relaxed scheduler
///   ([`crate::parallel`], at any host-thread count), which route RAM
///   through a raw sharded view,
///   buffer append-only device traffic per core, and never touch the
///   exact timing machinery (they only ever instantiate non-exact
///   [`Timing`] policies).
///
/// The timing hooks (`bus_acquire`, `burst`, `div_latency`) are only
/// reached from [`ExactTiming`] instantiations.
pub(crate) trait ExecCtx {
    /// Fetch the predecoded slot covering `pc` (decoding on first use).
    fn fetch(&mut self, pc: u32) -> PreInst;
    /// The raw instruction word at `pc` (trap reporting only).
    fn code_word(&self, pc: u32) -> Option<u32>;
    /// Scratchpad size in bytes.
    fn scratch_size(&self) -> u32;
    /// SDRAM size in bytes.
    fn sdram_size(&self) -> u32;
    /// Functional read from the scratchpad at byte offset `off`.
    fn read_scratch(&self, off: usize, op: LoadOp) -> Option<u32>;
    /// Functional read from SDRAM at byte offset `off`.
    fn read_sdram(&self, off: usize, op: LoadOp) -> Option<u32>;
    /// Functional write into the scratchpad.
    fn write_scratch(&mut self, off: usize, value: u32, op: StoreOp) -> bool;
    /// Functional write into SDRAM.
    fn write_sdram(&mut self, off: usize, value: u32, op: StoreOp) -> bool;
    /// Store-to-code guard for a store to `addr`.
    fn invalidate_store(&mut self, addr: u32);
    /// 32-bit MMIO read at `offset` from `core_id` at local time `now`.
    fn mmio_read(&mut self, core_id: u32, offset: u32, now: u64) -> u32;
    /// 32-bit MMIO write; returns the effect the core must apply.
    fn mmio_write(&mut self, core_id: u32, offset: u32, value: u32) -> MmioEffect;
    /// Append bytes to the console (`ecall` host services).
    fn console_extend(&mut self, bytes: &[u8]);
    /// Arbitrate for the shared bus (timing model only).
    fn bus_acquire(&mut self, now: u64, duration: u64) -> u64;
    /// Burst duration for `words` transfers (timing model only).
    fn burst(&self, words: u64) -> u64;
    /// Iterative-divider latency (timing model only).
    fn div_latency(&self) -> u64;
    /// Whether the CSR-writeback hazard fix is modelled.
    fn csr_writeback(&self) -> bool;
    /// Whether superblock execution is enabled for this run
    /// ([`crate::SystemConfig::superblocks`]).
    fn superblocks_enabled(&self) -> bool;
    /// Look up (forming on first use) the fused superblock starting at
    /// `pc`; see [`crate::predecode::CodeTable::superblock`].
    fn superblock(&mut self, pc: u32, buf: &mut [PreInst; MAX_SB]) -> (u32, u32);
    /// Whether kernel-span batch execution is enabled for this run
    /// ([`crate::SystemConfig::kernels`]) *and* any span is registered
    /// (runs without registered spans pay nothing either way).
    fn kernels_enabled(&self) -> bool;
    /// Header of the kernel span whose entry is exactly `pc`, if any.
    fn kernel_match(&self, pc: u32) -> Option<KernelHeader>;
    /// Span `idx`'s decoded trace.
    fn kernel_trace(&self, idx: u8) -> &[PreInst];
    /// Lifecycle state of span `idx` (re-read at each batch back-edge).
    fn kernel_state(&self, idx: u8) -> SpanState;
    /// Write back a span's lifecycle state after re-verification.
    fn kernel_set_state(&mut self, idx: u8, state: SpanState);
    /// Whether the core must stop with [`RunStop::SharedOp`] *before* the
    /// op at `pc` (with register file `regs`) executes. Only the
    /// host-parallel scheduler's segments answer yes — for an op that
    /// targets a shared-interactive MMIO register, which its sequential
    /// commit pass must execute against the real devices. Every other
    /// context keeps this default, and the check compiles out of its loop.
    #[inline(always)]
    fn defers_shared_op(&mut self, _regs: &[u32; 32], _pc: u32) -> bool {
        false
    }
}

/// Why a core stopped abnormally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapCause {
    /// Undecodable instruction word.
    IllegalInstruction {
        /// Faulting pc.
        pc: u32,
        /// The word that failed to decode.
        word: u32,
    },
    /// Instruction fetch outside mapped, executable memory.
    BadFetch {
        /// Faulting pc.
        pc: u32,
    },
    /// Data access outside mapped memory.
    BadAccess {
        /// pc of the access instruction.
        pc: u32,
        /// Offending data address.
        addr: u32,
        /// Whether it was a store.
        store: bool,
    },
    /// Misaligned word/half access (the core does not split accesses).
    Misaligned {
        /// pc of the access instruction.
        pc: u32,
        /// Offending data address.
        addr: u32,
    },
    /// A scheduled fault from the system's
    /// [`FaultPlan`](crate::mmio::FaultPlan) fired as a guest trap.
    InjectedFault {
        /// pc at the trigger point.
        pc: u32,
        /// Retired-instruction count at the trigger point.
        instret: u64,
    },
}

impl core::fmt::Display for TrapCause {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            TrapCause::IllegalInstruction { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at pc {pc:#010x}")
            }
            TrapCause::BadFetch { pc } => write!(f, "instruction fetch fault at pc {pc:#010x}"),
            TrapCause::BadAccess { pc, addr, store } => write!(
                f,
                "{} fault at address {addr:#010x} (pc {pc:#010x})",
                if store { "store" } else { "load" }
            ),
            TrapCause::Misaligned { pc, addr } => {
                write!(f, "misaligned access to {addr:#010x} (pc {pc:#010x})")
            }
            TrapCause::InjectedFault { pc, instret } => {
                write!(f, "injected fault at pc {pc:#010x} (instret {instret})")
            }
        }
    }
}

/// Why [`Core::run_while`] returned without a trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunStop {
    /// The core halted (ebreak / MMIO halt / ecall exit).
    Halted,
    /// `time` passed the scheduler bound; another core must run first.
    Bound,
    /// `time` passed the caller's cycle budget (timeout).
    Budget,
    /// The core arrived at an incomplete barrier round (relaxed scheduling
    /// only): it must be descheduled until the barrier releases.
    Parked,
    /// The next instruction targets a shared-interactive MMIO register
    /// (mutex / barrier arrival / RNG / stimulus). Only produced under a
    /// context whose [`ExecCtx::defers_shared_op`] hook asks for it (the
    /// host-parallel scheduler's segments), and it stops the core *before*
    /// the access executes, so the sequential commit pass can execute it
    /// against the real devices.
    SharedOp,
}

/// Hazard class of the previously retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PrevKind {
    /// Fully bypassed (ALU etc.) — no stall possible.
    Bypassed,
    /// Load: value arrives from MEM+WB, one bubble for an immediate user.
    Load,
    /// Neuromorphic instruction with register-file writeback: the paper's
    /// nm-result hazard (removed by the CSR-writeback option).
    NmWriteback,
}

/// In-arm exit signal from a `BLOCK`-mode [`Core::exec_op`] dispatch —
/// the superblock and kernel-batch loops read it after each op so the
/// memory arms can screen their own effective addresses (one dispatch per
/// op instead of a separate pre-classification pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockExit {
    /// The op retired normally; keep running the block.
    None,
    /// MMIO-classified access: the op did **not** run and no state —
    /// architectural or model — moved. The caller ends the block and
    /// single-steps the op with a flushed clock.
    Defer,
    /// The op retired but stored into the block's not-yet-executed tail:
    /// the fused buffer is stale — end the block after this op.
    StoreTail,
}

/// One processor core with private caches and counters.
#[derive(Debug, Clone)]
pub struct Core {
    /// Hart id.
    pub id: u32,
    pub(crate) regs: [u32; 32],
    pub(crate) pc: u32,
    /// Local clock in cycles.
    pub time: u64,
    halted: bool,
    /// Set when the core arrived at an incomplete barrier round under
    /// relaxed scheduling; the scheduler deschedules it until release.
    parked: bool,
    pub(crate) nmregs: NmRegs,
    icache: Cache,
    dcache: Cache,
    /// Cumulative event counters.
    pub counters: PerfCounters,
    /// Instructions retired inside kernel-span batches (a host-side
    /// coverage figure, *not* part of [`PerfCounters`]: it necessarily
    /// differs between kernel-on and kernel-off runs).
    pub kernel_instret: u64,
    /// The part of [`Core::kernel_instret`] the native tier retired as
    /// host code; the rest ran op by op in the generic tier.
    pub native_instret: u64,
    roi_active: bool,
    roi_base: PerfCounters,
    roi_final: Option<PerfCounters>,
    /// Destination index of the previous instruction when it can stall a
    /// dependent consumer (load / nm writeback), otherwise [`NO_DEST`].
    /// A shift into the current slot's source mask replaces the seed's
    /// `sources()` array scan.
    pub(crate) prev_stall_dest: u8,
    /// log2 of the I-cache line size (cached off the geometry).
    iline_shift: u32,
    /// log2 of the D-cache line size (cached off the geometry).
    dline_shift: u32,
    /// The line of the previous D-cache access and whether it is known
    /// dirty — the same-line fast path in [`Core::sdram_timing`].
    last_dline: u32,
    last_dline_dirty: bool,
    /// The line of the previous fetch: a same-line fetch is a guaranteed
    /// hit (only this core's fetches mutate its I-cache), skipping the
    /// tag probe entirely.
    last_iline: u32,
    /// Armed fault from the system's [`FaultPlan`](crate::mmio::FaultPlan):
    /// `(at_instret, kind)`, cleared once fired. `None` (the default)
    /// keeps the trigger check to one never-taken branch per instruction.
    pub(crate) fault: Option<(u64, FaultKind)>,
    /// Pending spike-log corruption: XORed into the next spike-log store's
    /// value, then cleared. Only a fired [`FaultKind::CorruptSpike`] sets
    /// this.
    pub(crate) spike_corrupt: u32,
}

impl Core {
    /// Create a core with the given caches.
    pub fn new(id: u32, icache: Cache, dcache: Cache) -> Self {
        let iline_shift = icache.config().line_bytes.trailing_zeros();
        let dline_shift = dcache.config().line_bytes.trailing_zeros();
        Core {
            id,
            regs: [0; 32],
            pc: 0,
            time: 0,
            halted: false,
            parked: false,
            nmregs: NmRegs::default(),
            icache,
            dcache,
            counters: PerfCounters::default(),
            kernel_instret: 0,
            native_instret: 0,
            roi_active: false,
            roi_base: PerfCounters::default(),
            roi_final: None,
            prev_stall_dest: NO_DEST,
            iline_shift,
            last_iline: u32::MAX,
            dline_shift,
            last_dline: u32::MAX,
            last_dline_dirty: false,
            fault: None,
            spike_corrupt: 0,
        }
    }

    /// Arm a scheduled fault (the system does this at construction from
    /// its [`FaultPlan`](crate::mmio::FaultPlan)).
    pub(crate) fn arm_fault(&mut self, at_instret: u64, kind: FaultKind) {
        self.fault = Some((at_instret, kind));
    }

    /// Read an architectural register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.idx()]
    }

    /// Write an architectural register (x0 stays zero). Branchless: the
    /// write always lands, then x0 is re-zeroed.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        self.regs[r.idx()] = v;
        self.regs[0] = 0;
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Set the program counter (used by the loader).
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Whether this core has halted (ebreak / MMIO halt / ecall exit).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Whether this core is parked at an incomplete barrier round (relaxed
    /// scheduling only; always `false` under the exact scheduler).
    pub fn parked(&self) -> bool {
        self.parked
    }

    /// Clear the parked flag (the relaxed scheduler calls this when the
    /// barrier round the core was waiting on has completed).
    pub(crate) fn clear_parked(&mut self) {
        self.parked = false;
    }

    /// The NM_REGS configuration block (inspection hook).
    pub fn nmregs(&self) -> &NmRegs {
        &self.nmregs
    }

    /// Counters for the measured region: the ROI delta when ROI markers
    /// were used, the cumulative counters otherwise.
    pub fn roi_counters(&self) -> PerfCounters {
        if self.roi_active {
            self.counters.delta(&self.roi_base)
        } else if let Some(d) = self.roi_final {
            d
        } else {
            self.counters
        }
    }

    /// I-cache statistics handle.
    pub fn icache(&self) -> &Cache {
        &self.icache
    }

    /// D-cache statistics handle.
    pub fn dcache(&self) -> &Cache {
        &self.dcache
    }

    /// I-cache refill: arbitrate for the bus and return the stall cycles.
    ///
    /// The cold helpers take exactly the fields they touch (not `&mut
    /// self`), so the inlined hot path keeps pc/clock/hazard state in
    /// registers across the miss-branch join points.
    #[cold]
    fn icache_refill<C: ExecCtx>(time: u64, words: u64, ctx: &mut C) -> u64 {
        let dur = ctx.burst(words);
        let done = ctx.bus_acquire(time, dur);
        done - time
    }

    /// D-cache refill (+ optional dirty writeback): stall cycles.
    #[cold]
    fn dcache_refill<C: ExecCtx>(time: u64, words: u64, writeback: bool, ctx: &mut C) -> u64 {
        let mut dur = ctx.burst(words);
        if writeback {
            dur += ctx.burst(words);
        }
        let done = ctx.bus_acquire(time, dur);
        done - time
    }

    /// MMIO access timing: every access arbitrates for the shared Avalon
    /// bus, so a core spinning on the barrier or streaming the spike log
    /// steals bandwidth from the other core's cache refills (a classic
    /// shared-bus effect that bounds the paper's dual-core speedup below 2).
    #[cold]
    fn mmio_timing<C: ExecCtx>(time: u64, ctx: &mut C) -> u64 {
        let done = ctx.bus_acquire(time, 4);
        (done - time).max(2)
    }

    /// Cached-SDRAM data-access timing (hit: 0 extra cycles). Memory
    /// stall cycles are accounted here (and on the MMIO paths), so the
    /// common hit path never touches the counter.
    ///
    /// Same-line fast path: every D-cache access funnels through here, so
    /// if the previous access touched line `last_dline`, nothing can have
    /// evicted it since — a repeat is a guaranteed hit and skips the tag
    /// probe. Writes additionally need the line already dirty (else the
    /// probe must set the dirty bit); `last_dline_dirty` tracks that
    /// conservatively — `false` merely routes one write through the full
    /// probe, which is always correct.
    #[inline]
    fn sdram_timing<C: ExecCtx>(&mut self, ctx: &mut C, addr: u32, write: bool) -> u64 {
        let line = addr >> self.dline_shift;
        if line == self.last_dline && (!write || self.last_dline_dirty) {
            self.dcache.hits += 1;
            return 0;
        }
        self.last_dline = line;
        self.last_dline_dirty = write;
        match self.dcache.access(addr, write) {
            Access::Hit => 0,
            Access::Miss { writeback } => {
                let stall = Self::dcache_refill(
                    self.time,
                    self.dcache.config().line_words() as u64,
                    writeback,
                    ctx,
                );
                self.counters.mem_stall_cycles += stall;
                stall
            }
        }
    }

    #[inline]
    fn load<T: Timing, C: ExecCtx>(
        &mut self,
        ctx: &mut C,
        addr: u32,
        op: LoadOp,
        pc: u32,
    ) -> Result<(u32, u64), TrapCause> {
        let size = match op {
            LoadOp::Lb | LoadOp::Lbu => 1,
            LoadOp::Lh | LoadOp::Lhu => 2,
            LoadOp::Lw => 4,
        };
        if !addr.is_multiple_of(size) {
            return Err(TrapCause::Misaligned { pc, addr });
        }
        // Classify the region exactly once; fall through to one of three
        // disjoint paths (scratchpad / cached SDRAM / MMIO) ordered by
        // access frequency, each indexing its backing slice directly.
        let (value, extra) = if addr.wrapping_sub(layout::SCRATCH_BASE) < ctx.scratch_size() {
            let off = addr.wrapping_sub(layout::SCRATCH_BASE) as usize;
            let value = ctx.read_scratch(off, op).ok_or(TrapCause::BadAccess {
                pc,
                addr,
                store: false,
            })?;
            (value, 0)
        } else if addr < ctx.sdram_size() {
            let extra = if T::EXACT {
                self.sdram_timing(ctx, addr, false)
            } else {
                0
            };
            let value = ctx
                .read_sdram(addr as usize, op)
                .ok_or(TrapCause::BadAccess {
                    pc,
                    addr,
                    store: false,
                })?;
            (value, extra)
        } else if addr.wrapping_sub(layout::MMIO_BASE) < layout::MMIO_SIZE {
            let extra = if T::EXACT {
                let extra = Self::mmio_timing(self.time, ctx);
                self.counters.mem_stall_cycles += extra;
                extra
            } else {
                0
            };
            let value = ctx.mmio_read(self.id, addr - layout::MMIO_BASE, self.time);
            (value, extra)
        } else {
            return Err(TrapCause::BadAccess {
                pc,
                addr,
                store: false,
            });
        };
        // Counted once the access has succeeded, so `loads` counts only
        // retired loads.
        self.counters.loads += 1;
        let value = match op {
            LoadOp::Lb => value as u8 as i8 as i32 as u32,
            LoadOp::Lh => value as u16 as i16 as i32 as u32,
            _ => value,
        };
        Ok((value, extra))
    }

    #[inline]
    fn store<T: Timing, C: ExecCtx>(
        &mut self,
        ctx: &mut C,
        addr: u32,
        value: u32,
        op: StoreOp,
        pc: u32,
    ) -> Result<(u64, MmioEffect), TrapCause> {
        let size = match op {
            StoreOp::Sb => 1,
            StoreOp::Sh => 2,
            StoreOp::Sw => 4,
        };
        if !addr.is_multiple_of(size) {
            return Err(TrapCause::Misaligned { pc, addr });
        }
        // Same single classification as `load`, ordered by access
        // frequency: scratch, then cached SDRAM, then MMIO, then the trap.
        let in_scratch = addr.wrapping_sub(layout::SCRATCH_BASE) < ctx.scratch_size();
        if !in_scratch && addr >= ctx.sdram_size() {
            if addr.wrapping_sub(layout::MMIO_BASE) < layout::MMIO_SIZE {
                self.counters.stores += 1;
                let extra = if T::EXACT {
                    let extra = Self::mmio_timing(self.time, ctx);
                    self.counters.mem_stall_cycles += extra;
                    extra
                } else {
                    0
                };
                let offset = addr - layout::MMIO_BASE;
                // Pending injected corruption lands on the next spike-log
                // word; architectural state is never touched.
                let value = if self.spike_corrupt != 0 && offset == layout::MMIO_SPIKE_LOG {
                    let v = value ^ self.spike_corrupt;
                    self.spike_corrupt = 0;
                    v
                } else {
                    value
                };
                let effect = ctx.mmio_write(self.id, offset, value);
                return Ok((extra, effect));
            }
            return Err(TrapCause::BadAccess {
                pc,
                addr,
                store: true,
            });
        }
        let (extra, ok) = if in_scratch {
            let off = addr.wrapping_sub(layout::SCRATCH_BASE) as usize;
            (0, ctx.write_scratch(off, value, op))
        } else {
            let extra = if T::EXACT {
                self.sdram_timing(ctx, addr, true)
            } else {
                0
            };
            (extra, ctx.write_sdram(addr as usize, value, op))
        };
        if !ok {
            return Err(TrapCause::BadAccess {
                pc,
                addr,
                store: true,
            });
        }
        self.counters.stores += 1;
        // Store-to-code guard: writing into a predecoded window forces a
        // re-decode of the covered slot on its next fetch.
        ctx.invalidate_store(addr);
        Ok((extra, MmioEffect::None))
    }

    /// Mirror the derivable counters (clock, cache stats, access totals)
    /// into `PerfCounters`. Called once per batch / step / ROI event, so
    /// the per-instruction path never touches them.
    pub(crate) fn sync_counters(&mut self) {
        self.counters.cycles = self.time;
        (self.counters.icache_hits, self.counters.icache_misses) = self.icache.stats();
        (self.counters.dcache_hits, self.counters.dcache_misses) = self.dcache.stats();
        self.counters.mem_accesses = self.counters.loads + self.counters.stores;
    }

    /// Hazard class of an nm instruction's register-file writeback: the
    /// paper's proposed CSR-writeback fix removes the stall entirely.
    #[inline]
    fn nm_kind<C: ExecCtx>(&self, ctx: &C) -> PrevKind {
        if ctx.csr_writeback() {
            PrevKind::Bypassed
        } else {
            PrevKind::NmWriteback
        }
    }

    fn csr_read(&self, csr: u16) -> u32 {
        match csr {
            0xB00 => self.time as u32,             // mcycle
            0xB80 => (self.time >> 32) as u32,     // mcycleh
            0xB02 => self.counters.instret as u32, // minstret
            0xB82 => (self.counters.instret >> 32) as u32,
            0xF14 => self.id, // mhartid
            _ => 0,
        }
    }

    /// Trap for a failed fetch (illegal encoding or unmapped pc).
    #[cold]
    fn fetch_trap<C: ExecCtx>(state: SlotState, pc: u32, ctx: &C) -> TrapCause {
        if state == SlotState::Illegal {
            TrapCause::IllegalInstruction {
                pc,
                word: ctx.code_word(pc).unwrap_or(0),
            }
        } else {
            TrapCause::BadFetch { pc }
        }
    }

    /// `ecall` host services (kept out of line: the string-formatting
    /// machinery would otherwise bloat the interpreter's stack frame).
    #[cold]
    fn ecall<C: ExecCtx>(&mut self, ctx: &mut C) {
        // Minimal host services, newlib-free.
        match self.reg(Reg::A7) {
            0 | 93 => self.halted = true,
            1 => {
                let s = (self.reg(Reg::A0) as i32).to_string();
                ctx.console_extend(s.as_bytes());
            }
            2 => ctx.console_extend(&[self.reg(Reg::A0) as u8]),
            3 => {
                let s = format!("{:#010x}", self.reg(Reg::A0));
                ctx.console_extend(s.as_bytes());
            }
            _ => {}
        }
    }

    /// Execute one instruction; advances the local clock by its full cost.
    pub fn step(&mut self, shared: &mut Shared) -> Result<(), TrapCause> {
        if self.halted {
            return Ok(());
        }
        let out = self.exec_one::<ExactTiming, _>(shared);
        self.sync_counters();
        out
    }

    /// The batched hot loop: execute instructions while `time <= bound`,
    /// stopping on halt, trap or cycle budget. Keeping the loop inside one
    /// call lets the compiler hold pc/clock/hazard state in registers
    /// across instructions instead of spilling them at every `step`
    /// boundary — `System::run` drives cores exclusively through this.
    ///
    /// All three conditions are checked *before* each instruction, in the
    /// order halt, bound, budget, so a sequence of `run_while` batches is
    /// instruction-for-instruction identical to single-stepping.
    ///
    /// With a non-exact [`Timing`] policy the loop runs the relaxed-clock
    /// variant of [`Core::exec_one`] and additionally stops with
    /// [`RunStop::Parked`] when the core arrives at an incomplete barrier
    /// round.
    pub(crate) fn run_while<T: Timing, C: ExecCtx>(
        &mut self,
        ctx: &mut C,
        bound: u64,
        max_cycles: u64,
    ) -> Result<RunStop, TrapCause> {
        let stop = bound.min(max_cycles);
        let sb = ctx.superblocks_enabled();
        let kern = !T::EXACT && ctx.kernels_enabled();
        let mut sbuf = [PreInst::EMPTY; MAX_SB];
        let run = loop {
            if self.halted {
                break Ok(RunStop::Halted);
            }
            if !T::EXACT && self.parked {
                break Ok(RunStop::Parked);
            }
            let t = self.time;
            if t > stop {
                // One fused comparison per instruction; the cause is only
                // disambiguated here, on exit.
                break Ok(if t > bound {
                    RunStop::Bound
                } else {
                    RunStop::Budget
                });
            }
            // Host-parallel segments stop before an op that touches a
            // shared-interactive device (compiled out everywhere else).
            // The check precedes both batch tiers: a batch's first op is
            // the checked one, and both tiers defer before any interior
            // MMIO access, so a deferred interactive op is always re-seen
            // here first. The slot fetch is repeated by whichever path
            // runs the op, but a warm fetch is one bounds check and a
            // 16-byte copy — the price of never rolling an op back.
            if ctx.defers_shared_op(&self.regs, self.pc) {
                break Ok(RunStop::SharedOp);
            }
            // Kernel spans outrank superblocks at their entry pc: a batch
            // swallows whole loop iterations where a block stops at the
            // back-edge. Declines fall through to the block/single paths.
            if kern {
                match self.try_kernel::<T, _>(ctx, stop) {
                    Ok(true) => continue,
                    Ok(false) => {}
                    Err(cause) => break Err(cause),
                }
            }
            if sb {
                match self.try_superblock::<T, _>(ctx, &mut sbuf, stop) {
                    Ok(true) => continue,
                    Ok(false) => {}
                    Err(cause) => break Err(cause),
                }
            }
            if let Err(cause) = self.exec_one::<T, _>(ctx) {
                break Err(cause);
            }
        };
        // The derivable counters are mirrored once per batch (and at the
        // ROI markers), not once per instruction.
        self.sync_counters();
        run
    }

    /// Execute exactly one (non-halted) instruction.
    ///
    /// `T` selects the monomorphised hot loop (see [`Timing`]):
    ///
    /// * [`ExactTiming`] — the cycle-exact interpreter: cache models, bus
    ///   arbitration, hazard/flush/divider stalls all charged as usual.
    /// * [`UnitTiming`] / [`EstimatedTiming`] — the relaxed-clock
    ///   interpreters used by the relaxed scheduler:
    ///   functionally identical execution, but the local clock advances by
    ///   the policy's static per-op cost (exactly 1 for `Unit`, the
    ///   [`CostTable`] class cost for `Estimated`) and no cache/bus/hazard
    ///   state is touched. Barrier arrivals that leave the round
    ///   incomplete park the core.
    #[inline(always)]
    pub(crate) fn exec_one<T: Timing, C: ExecCtx>(&mut self, ctx: &mut C) -> Result<(), TrapCause> {
        let pc = self.pc;
        // Fault-injection trigger: instret is schedule-invariant per core,
        // so a plan fires at the same architectural point under every
        // scheduling mode. Unarmed (the default) this is one never-taken
        // branch.
        if let Some((at, _)) = self.fault {
            if self.counters.instret >= at {
                self.fire_fault(pc)?;
            }
        }
        if !pc.is_multiple_of(4) {
            return Err(TrapCause::BadFetch { pc });
        }
        // Predecoded fetch: direct table index; decode cost only on the
        // first execution of a (possibly store-invalidated) slot.
        let pre = ctx.fetch(pc);
        let mut exit = BlockExit::None;
        let next_pc = self.exec_op::<T, _, false>(ctx, &pre, pc, 0, 0, &mut exit)?;
        self.pc = next_pc;
        Ok(())
    }

    /// Dispatch and retire one predecoded micro-op at `pc`, returning the
    /// next pc — the one definition of every op's semantics. The
    /// single-step path ([`Core::exec_one`]) wraps this with the
    /// fault-plan trigger, the alignment check and the table fetch; the
    /// superblock path ([`Core::exec_block`]) and the generic kernel tier
    /// (`Core::kernel_batch`) hoist those out of the per-op loop and run
    /// ops straight from a copied buffer.
    ///
    /// `BLOCK` (a const, so both variants compile to straight-line code)
    /// selects the superblock calling convention:
    ///
    /// * the caller guarantees the slot is decoded SDRAM and that the
    ///   fetch is a verified I-cache hit (blocks end *before* a would-miss
    ///   fetch) with accounting batched per line segment — the state match
    ///   and the fetch-timing arm are both skipped;
    /// * the memory arms screen their effective address *in-arm*: an
    ///   MMIO-classified access signals [`BlockExit::Defer`] and returns
    ///   with **no** state moved (the hazard-stall commit is rolled back),
    ///   so the caller can single-step it with a flushed clock — MMIO is
    ///   otherwise unreachable and the device-effect tail is skipped;
    /// * a store landing in the block's not-yet-executed tail (derived
    ///   from `blk_base`/`blk_len`: block and span buffers are contiguous
    ///   from `blk_base`, so the op index is `(pc - blk_base) / 4`)
    ///   retires normally but signals [`BlockExit::StoreTail`];
    /// * the non-exact clock/instret update is left to the caller, which
    ///   accumulates one sum per block. The exact policy always retires
    ///   per-op because stall costs are data-dependent.
    ///
    /// The slot is destructured straight into scalars so the 16-byte
    /// `PreInst` never round-trips through a stack temporary.
    #[inline(always)]
    #[allow(clippy::too_many_lines)]
    pub(crate) fn exec_op<T: Timing, C: ExecCtx, const BLOCK: bool>(
        &mut self,
        ctx: &mut C,
        pre: &PreInst,
        pc: u32,
        blk_base: u32,
        blk_len: u32,
        exit: &mut BlockExit,
    ) -> Result<u32, TrapCause> {
        let &PreInst {
            op,
            rd,
            rs1,
            rs2,
            imm,
            src_mask,
            dest,
            state,
        } = pre;
        let mut extra = 0u64;
        if BLOCK {
            // Blocks only cover decoded SDRAM slots (a CodeTable
            // invariant) and the caller verified the fetch hits.
            debug_assert_eq!(state, SlotState::Sdram);
        } else {
            match state {
                SlotState::Sdram => {
                    if T::EXACT {
                        // Same line as the previous fetch => guaranteed hit
                        // (only this core's own fetches mutate its I-cache);
                        // otherwise a packed tag probe. Statistics live in the
                        // cache model and are mirrored into PerfCounters at
                        // sync points.
                        let line = pc >> self.iline_shift;
                        if line == self.last_iline {
                            self.icache.hits += 1;
                        } else {
                            self.last_iline = line;
                            if self.icache.access(pc, false) != Access::Hit {
                                extra += Self::icache_refill(
                                    self.time,
                                    self.icache.config().line_words() as u64,
                                    ctx,
                                );
                            }
                        }
                    }
                }
                SlotState::Scratch => {}
                _ => return Err(Self::fetch_trap(state, pc, ctx)),
            }
        }

        // Hazard stall: previous load / nm instruction feeding this one
        // (one shift into the predecoded source-register mask; the u64
        // widening makes the NO_DEST sentinel shift out to zero).
        let mut stall = 0u64;
        if T::EXACT {
            stall = (u64::from(src_mask) >> self.prev_stall_dest) & 1;
            if stall != 0 {
                self.counters.hazard_stalls += stall;
                extra += stall;
            }
        }

        let mut next_pc = pc.wrapping_add(4);
        let mut effect = MmioEffect::None;
        let mut kind = PrevKind::Bypassed;
        let (rd, rs1, rs2) = (Reg(rd), Reg(rs1), Reg(rs2));
        // Branch resolved in EX: one wrong-path fetch squashed per taken
        // branch/jump; accounted inside the taken arms.
        let mut flushes = 0u64;

        match op {
            MicroOp::Lui => self.set_reg(rd, imm as u32),
            // auipc's value was fully resolved at predecode (pc is static).
            MicroOp::Auipc => self.set_reg(rd, imm as u32),
            MicroOp::Jal => {
                self.counters.branches += 1;
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = imm as u32; // absolute target, pre-resolved
                flushes = 1;
            }
            MicroOp::Jalr => {
                self.counters.branches += 1;
                let target = self.reg(rs1).wrapping_add(imm as u32) & !1;
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = target;
                flushes = 1;
            }
            MicroOp::Beq => {
                self.counters.branches += 1;
                if self.reg(rs1) == self.reg(rs2) {
                    next_pc = imm as u32;
                    flushes = 1;
                }
            }
            MicroOp::Bne => {
                self.counters.branches += 1;
                if self.reg(rs1) != self.reg(rs2) {
                    next_pc = imm as u32;
                    flushes = 1;
                }
            }
            MicroOp::Blt => {
                self.counters.branches += 1;
                if (self.reg(rs1) as i32) < (self.reg(rs2) as i32) {
                    next_pc = imm as u32;
                    flushes = 1;
                }
            }
            MicroOp::Bge => {
                self.counters.branches += 1;
                if (self.reg(rs1) as i32) >= (self.reg(rs2) as i32) {
                    next_pc = imm as u32;
                    flushes = 1;
                }
            }
            MicroOp::Bltu => {
                self.counters.branches += 1;
                if self.reg(rs1) < self.reg(rs2) {
                    next_pc = imm as u32;
                    flushes = 1;
                }
            }
            MicroOp::Bgeu => {
                self.counters.branches += 1;
                if self.reg(rs1) >= self.reg(rs2) {
                    next_pc = imm as u32;
                    flushes = 1;
                }
            }
            MicroOp::Lb | MicroOp::Lh | MicroOp::Lw | MicroOp::Lbu | MicroOp::Lhu => {
                // Linear discriminants: this mapping lowers to arithmetic,
                // not a second jump. (Splitting into one arm per width
                // measured slower — the duplicated bodies blow the I-cache.)
                let lop = match op {
                    MicroOp::Lb => LoadOp::Lb,
                    MicroOp::Lh => LoadOp::Lh,
                    MicroOp::Lw => LoadOp::Lw,
                    MicroOp::Lbu => LoadOp::Lbu,
                    _ => LoadOp::Lhu,
                };
                let addr = self.reg(rs1).wrapping_add(imm as u32);
                if BLOCK && addr.wrapping_sub(layout::MMIO_BASE) < layout::MMIO_SIZE {
                    if T::EXACT {
                        self.counters.hazard_stalls -= stall;
                    }
                    *exit = BlockExit::Defer;
                    return Ok(pc);
                }
                let (value, mem_extra) = self.load::<T, _>(ctx, addr, lop, pc)?;
                self.set_reg(rd, value);
                extra += mem_extra;
                kind = PrevKind::Load;
            }
            MicroOp::Sb | MicroOp::Sh | MicroOp::Sw => {
                let sop = match op {
                    MicroOp::Sb => StoreOp::Sb,
                    MicroOp::Sh => StoreOp::Sh,
                    _ => StoreOp::Sw,
                };
                let addr = self.reg(rs1).wrapping_add(imm as u32);
                if BLOCK && addr.wrapping_sub(layout::MMIO_BASE) < layout::MMIO_SIZE {
                    if T::EXACT {
                        self.counters.hazard_stalls -= stall;
                    }
                    *exit = BlockExit::Defer;
                    return Ok(pc);
                }
                let (mem_extra, eff) = self.store::<T, _>(ctx, addr, self.reg(rs2), sop, pc)?;
                extra += mem_extra;
                effect = eff;
                if BLOCK {
                    Self::flag_store_tail(addr, pc, blk_base, blk_len, exit);
                }
            }
            MicroOp::Addi => {
                let v = self.reg(rs1).wrapping_add(imm as u32);
                self.set_reg(rd, v);
            }
            MicroOp::Slti => {
                let v = u32::from((self.reg(rs1) as i32) < imm);
                self.set_reg(rd, v);
            }
            MicroOp::Sltiu => {
                let v = u32::from(self.reg(rs1) < imm as u32);
                self.set_reg(rd, v);
            }
            MicroOp::Xori => {
                let v = self.reg(rs1) ^ imm as u32;
                self.set_reg(rd, v);
            }
            MicroOp::Ori => {
                let v = self.reg(rs1) | imm as u32;
                self.set_reg(rd, v);
            }
            MicroOp::Andi => {
                let v = self.reg(rs1) & imm as u32;
                self.set_reg(rd, v);
            }
            MicroOp::Slli => {
                let v = self.reg(rs1) << (imm & 0x1F);
                self.set_reg(rd, v);
            }
            MicroOp::Srli => {
                let v = self.reg(rs1) >> (imm & 0x1F);
                self.set_reg(rd, v);
            }
            MicroOp::Srai => {
                let v = ((self.reg(rs1) as i32) >> (imm & 0x1F)) as u32;
                self.set_reg(rd, v);
            }
            MicroOp::Add => {
                let v = self.reg(rs1).wrapping_add(self.reg(rs2));
                self.set_reg(rd, v);
            }
            MicroOp::Sub => {
                let v = self.reg(rs1).wrapping_sub(self.reg(rs2));
                self.set_reg(rd, v);
            }
            MicroOp::Sll => {
                let v = self.reg(rs1) << (self.reg(rs2) & 0x1F);
                self.set_reg(rd, v);
            }
            MicroOp::Slt => {
                let v = u32::from((self.reg(rs1) as i32) < (self.reg(rs2) as i32));
                self.set_reg(rd, v);
            }
            MicroOp::Sltu => {
                let v = u32::from(self.reg(rs1) < self.reg(rs2));
                self.set_reg(rd, v);
            }
            MicroOp::Xor => {
                let v = self.reg(rs1) ^ self.reg(rs2);
                self.set_reg(rd, v);
            }
            MicroOp::Srl => {
                let v = self.reg(rs1) >> (self.reg(rs2) & 0x1F);
                self.set_reg(rd, v);
            }
            MicroOp::Sra => {
                let v = ((self.reg(rs1) as i32) >> (self.reg(rs2) & 0x1F)) as u32;
                self.set_reg(rd, v);
            }
            MicroOp::Or => {
                let v = self.reg(rs1) | self.reg(rs2);
                self.set_reg(rd, v);
            }
            MicroOp::And => {
                let v = self.reg(rs1) & self.reg(rs2);
                self.set_reg(rd, v);
            }
            MicroOp::Mul => {
                self.counters.muls += 1;
                let v = self.reg(rs1).wrapping_mul(self.reg(rs2));
                self.set_reg(rd, v);
            }
            MicroOp::Mulh => {
                self.counters.muls += 1;
                let v = ((self.reg(rs1) as i32 as i64).wrapping_mul(self.reg(rs2) as i32 as i64)
                    >> 32) as u32;
                self.set_reg(rd, v);
            }
            MicroOp::Mulhsu => {
                self.counters.muls += 1;
                let v =
                    ((self.reg(rs1) as i32 as i64).wrapping_mul(self.reg(rs2) as i64) >> 32) as u32;
                self.set_reg(rd, v);
            }
            MicroOp::Mulhu => {
                self.counters.muls += 1;
                let v = ((self.reg(rs1) as u64 * self.reg(rs2) as u64) >> 32) as u32;
                self.set_reg(rd, v);
            }
            MicroOp::Div => {
                self.counters.divs += 1;
                let (a, b) = (self.reg(rs1), self.reg(rs2));
                if T::EXACT {
                    let lat = ctx.div_latency();
                    extra += lat;
                    self.counters.div_stall_cycles += lat;
                }
                let v = if b == 0 {
                    u32::MAX
                } else if a == 0x8000_0000 && b == u32::MAX {
                    a // overflow: -2^31 / -1
                } else {
                    ((a as i32) / (b as i32)) as u32
                };
                self.set_reg(rd, v);
            }
            MicroOp::Divu => {
                self.counters.divs += 1;
                let (a, b) = (self.reg(rs1), self.reg(rs2));
                if T::EXACT {
                    let lat = ctx.div_latency();
                    extra += lat;
                    self.counters.div_stall_cycles += lat;
                }
                self.set_reg(rd, a.checked_div(b).unwrap_or(u32::MAX));
            }
            MicroOp::Rem => {
                self.counters.divs += 1;
                let (a, b) = (self.reg(rs1), self.reg(rs2));
                if T::EXACT {
                    let lat = ctx.div_latency();
                    extra += lat;
                    self.counters.div_stall_cycles += lat;
                }
                let v = if b == 0 {
                    a
                } else if a == 0x8000_0000 && b == u32::MAX {
                    0
                } else {
                    ((a as i32) % (b as i32)) as u32
                };
                self.set_reg(rd, v);
            }
            MicroOp::Remu => {
                self.counters.divs += 1;
                let (a, b) = (self.reg(rs1), self.reg(rs2));
                if T::EXACT {
                    let lat = ctx.div_latency();
                    extra += lat;
                    self.counters.div_stall_cycles += lat;
                }
                self.set_reg(rd, if b == 0 { a } else { a % b });
            }
            MicroOp::Fence => {}
            MicroOp::Ecall => {
                self.counters.csr_ops += 1;
                self.ecall(ctx);
            }
            MicroOp::Ebreak => {
                self.counters.csr_ops += 1;
                self.halted = true;
            }
            MicroOp::Csr => {
                self.counters.csr_ops += 1;
                let old = self.csr_read(imm as u16);
                self.set_reg(rd, old);
            }
            MicroOp::Nmldl => {
                let ok = self.nmregs.exec_nmldl(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, ok);
                self.counters.nmldl += 1;
                kind = self.nm_kind(ctx);
            }
            MicroOp::Nmldh => {
                let ok = self.nmregs.exec_nmldh(self.reg(rs1));
                self.set_reg(rd, ok);
                self.counters.nmldh += 1;
                kind = self.nm_kind(ctx);
            }
            MicroOp::Nmpn => {
                let vu = self.reg(rs1);
                let isyn = Q15_16::from_raw(self.reg(rs2) as i32);
                let addr = self.reg(rd);
                if BLOCK && addr.wrapping_sub(layout::MMIO_BASE) < layout::MMIO_SIZE {
                    if T::EXACT {
                        self.counters.hazard_stalls -= stall;
                    }
                    *exit = BlockExit::Defer;
                    return Ok(pc);
                }
                let out = NpUnit::update(&self.nmregs, vu, isyn);
                let (mem_extra, eff) = self.store::<T, _>(ctx, addr, out.vu, StoreOp::Sw, pc)?;
                extra += mem_extra;
                effect = eff;
                self.set_reg(rd, u32::from(out.spike));
                self.counters.nmpn += 1;
                kind = self.nm_kind(ctx);
                if BLOCK {
                    Self::flag_store_tail(addr, pc, blk_base, blk_len, exit);
                }
            }
            MicroOp::Nmdec => {
                let out = Dcu::exec_nmdec(&self.nmregs, self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, out);
                self.counters.nmdec += 1;
                // Pure EX-stage result: forwarded like an ALU op.
            }
        }

        if T::EXACT {
            self.counters.flush_cycles += flushes;
            extra += flushes;
            self.prev_stall_dest = if kind == PrevKind::Bypassed {
                NO_DEST
            } else {
                dest
            };
        } else {
            // The relaxed clocks charge no flush/hazard cycles; keep the
            // hazard tracker neutral so a later exact run on the same core
            // cannot inherit a stale dependence.
            let _ = (kind, dest, flushes);
            self.prev_stall_dest = NO_DEST;
        }

        if T::EXACT {
            // Exact: base cycle plus the dynamically accumulated stalls,
            // retired per-op even inside a superblock (stall costs are
            // data-dependent, and MMIO/bus arbitration reads the live
            // clock).
            self.counters.instret += 1;
            self.time += 1 + extra;
        } else if !BLOCK {
            // Non-exact: the policy's static per-op cost (1 for Unit, the
            // CostTable class cost for Estimated), with `extra` always 0.
            // A superblock caller accumulates these itself and flushes
            // once per block.
            self.counters.instret += 1;
            self.time += T::op_cost(op);
        }

        if BLOCK {
            // MMIO never executes inside a block (the caller's address
            // screen defers it), so no device effect can be pending.
            debug_assert_eq!(effect, MmioEffect::None);
        } else if effect != MmioEffect::None {
            self.apply_effect::<T>(effect);
        }
        Ok(next_pc)
    }

    /// Attempt to execute the superblock starting at `self.pc` as one
    /// dispatch. Returns `Ok(true)` if at least one op retired (the caller
    /// re-enters its loop), `Ok(false)` to fall back to single-stepping —
    /// no block at this pc, a fault-plan trigger too close, (non-exact)
    /// not enough clock headroom before `stop` to guarantee the whole
    /// block would also have run under single-stepping, or an
    /// MMIO-classified access as the block's very first op.
    #[inline]
    pub(crate) fn try_superblock<T: Timing, C: ExecCtx>(
        &mut self,
        ctx: &mut C,
        sbuf: &mut [PreInst; MAX_SB],
        stop: u64,
    ) -> Result<bool, TrapCause> {
        let pc = self.pc;
        if !pc.is_multiple_of(4) {
            // Let the single-step path raise the BadFetch.
            return Ok(false);
        }
        let (len, est) = ctx.superblock(pc, sbuf);
        if len < 2 {
            return Ok(false);
        }
        // Fault-plan hoist: a trigger fires when `instret >= at` *before*
        // an op, so a block of `len` retirements is trigger-free iff
        // `instret + len <= at`. Anything closer single-steps.
        if let Some((at, _)) = self.fault {
            if self.counters.instret + u64::from(len) > at {
                return Ok(false);
            }
        }
        // Non-exact entry bound: `est` sums the static class costs, which
        // are >= 1 cycle each, so it conservatively bounds the block's
        // clock advance under both Unit and Estimated policies. If the
        // whole block fits under `stop`, single-stepping would have run
        // every op too — identical stop points at every quantum size and
        // host-thread count. The exact policy re-checks per op instead
        // (stall costs are data-dependent).
        if !T::EXACT && self.time + u64::from(est) > stop {
            return Ok(false);
        }
        self.exec_block::<T, _>(ctx, &sbuf[..len as usize], pc, stop)
    }

    /// Flag a retiring store that lands in its own block's not-yet-executed
    /// tail (words past this op): the fused buffer is stale from the next
    /// op on, so the block must end after this one. Block and span buffers
    /// are contiguous from `blk_base`, so the op's index is
    /// `(pc - blk_base) / 4`.
    #[inline(always)]
    fn flag_store_tail(addr: u32, pc: u32, blk_base: u32, blk_len: u32, exit: &mut BlockExit) {
        let next_idx = (pc.wrapping_sub(blk_base) >> 2) + 1;
        let tail_start = (blk_base >> 2).wrapping_add(next_idx);
        if (addr >> 2).wrapping_sub(tail_start) < blk_len - next_idx {
            *exit = BlockExit::StoreTail;
        }
    }

    /// Run the fused micro-op buffer `ops` (the superblock starting at
    /// `base_pc`) with the per-op fault/alignment/fetch checks hoisted
    /// off, the I-cache accounting batched per line segment, and — under
    /// the non-exact clocks — one clock/instret update per block. Returns
    /// whether any op retired. Exits early — with all architectural and
    /// model state exactly as single-stepping would leave it — on:
    ///
    /// * an exact-clock bound crossing before an interior op (`stop`);
    /// * a fetch that would miss the I-cache (broken before the tag
    ///   array, the statistics or the bus move — the single-step fallback
    ///   re-probes for real and charges the refill);
    /// * an MMIO-classified access ([`BlockExit::Defer`], signalled
    ///   in-arm before the access and before any state moves: devices
    ///   read the live clock, ROI markers snapshot the counters, and the
    ///   host-parallel scheduler's shared-op pre-check must see
    ///   interactive registers first — the caller single-steps the access
    ///   with a flushed clock);
    /// * a store landing in the block's not-yet-executed tail
    ///   ([`BlockExit::StoreTail`]: the buffered copy is stale; re-entry
    ///   re-forms the block).
    fn exec_block<T: Timing, C: ExecCtx>(
        &mut self,
        ctx: &mut C,
        ops: &[PreInst],
        base_pc: u32,
        stop: u64,
    ) -> Result<bool, TrapCause> {
        let len = ops.len();
        let mut dt = 0u64;
        let mut pc = base_pc;
        let mut i = 0usize;
        // First op index past the I-line the block last probed (exact),
        // and the fetch hits accumulated locally since block entry —
        // flushed to the cache's counter on every exit path. The counter
        // is only observable outside the block (sync points and MMIO both
        // defer out), so batching the read-modify-writes is invisible.
        let mut seg_end = 0usize;
        let mut seg_hits = 0u64;
        while i < len {
            let pre = &ops[i];
            if T::EXACT {
                if i > 0 && self.time > stop {
                    break;
                }
                if i >= seg_end {
                    // The block crossed into a new I-line: one pure probe
                    // covers the line to its end (interior fetches are
                    // guaranteed hits — only this core's own fetches
                    // mutate its I-cache, and block ops are sequential).
                    let line = pc >> self.iline_shift;
                    if line != self.last_iline {
                        if !self.icache.would_hit(pc) {
                            break;
                        }
                        self.last_iline = line;
                    }
                    let line_end = (line + 1) << self.iline_shift;
                    seg_end = i + (line_end.wrapping_sub(pc) >> 2) as usize;
                }
                // The op's fetch: a guaranteed hit, counted even if the
                // op itself traps (single-stepping accounts the fetch
                // before dispatch too).
                seg_hits += 1;
            }
            let mut exit = BlockExit::None;
            match self.exec_op::<T, _, true>(ctx, pre, pc, base_pc, len as u32, &mut exit) {
                Ok(next) => {
                    if exit != BlockExit::None {
                        if exit == BlockExit::Defer {
                            // The op did not run and nothing moved; its
                            // fetch will be re-accounted by the
                            // single-step fallback.
                            if T::EXACT {
                                seg_hits -= 1;
                            }
                            break;
                        }
                        // StoreTail: the op retired; end the block here.
                        if !T::EXACT {
                            dt += T::op_cost(pre.op);
                        }
                        pc = next;
                        i += 1;
                        break;
                    }
                    if !T::EXACT {
                        dt += T::op_cost(pre.op);
                    }
                    pc = next;
                    i += 1;
                }
                Err(cause) => {
                    // The op at `pc` did not retire; leave pc there, flush
                    // the retired prefix (and the trapped op's fetch).
                    self.pc = pc;
                    if T::EXACT {
                        self.icache.hits += seg_hits;
                    } else {
                        self.time += dt;
                        self.counters.instret += i as u64;
                    }
                    return Err(cause);
                }
            }
        }
        self.pc = pc;
        if T::EXACT {
            self.icache.hits += seg_hits;
        } else {
            self.time += dt;
            self.counters.instret += i as u64;
        }
        Ok(i > 0)
    }

    /// Fire the armed fault (out of line; at most once per run). Returns
    /// `Err` only for [`FaultKind::GuestTrap`]; the other kinds perturb
    /// host or output state and let execution continue.
    #[cold]
    fn fire_fault(&mut self, pc: u32) -> Result<(), TrapCause> {
        let (_, kind) = self.fault.take().expect("trigger check saw an armed fault");
        match kind {
            FaultKind::GuestTrap => Err(TrapCause::InjectedFault {
                pc,
                instret: self.counters.instret,
            }),
            FaultKind::StallMs(ms) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(())
            }
            FaultKind::CorruptSpike(mask) => {
                self.spike_corrupt = mask;
                Ok(())
            }
            FaultKind::HostPanic => panic!(
                "injected host panic on core {} (pc {pc:#010x}, instret {})",
                self.id, self.counters.instret
            ),
        }
    }

    /// Rare MMIO side effects (halt / ROI markers / barrier parking), out
    /// of the hot path.
    #[cold]
    fn apply_effect<T: Timing>(&mut self, effect: MmioEffect) {
        match effect {
            MmioEffect::None => {}
            MmioEffect::Halt => self.halted = true,
            MmioEffect::BarrierWait => {
                // Exact scheduling simulates the guest's spin loop; the
                // relaxed scheduler deschedules the core instead.
                if !T::EXACT {
                    self.parked = true;
                }
            }
            MmioEffect::RoiStart => {
                self.sync_counters();
                self.roi_base = self.counters;
                self.roi_active = true;
                self.roi_final = None;
            }
            MmioEffect::RoiStop => {
                if self.roi_active {
                    self.sync_counters();
                    self.roi_final = Some(self.counters.delta(&self.roi_base));
                    self.roi_active = false;
                }
            }
        }
    }
}
