//! The multi-core system: configuration, program loading and the
//! event-driven run loop.

use izhi_isa::asm::Program;
use izhi_isa::inst::{LoadOp, StoreOp};

use crate::bus::{BusArbiter, BusTimings};
use crate::cache::{Cache, CacheConfig};
use crate::counters::Metrics;
use crate::cpu::{
    Core, EstimatedTiming, ExactTiming, ExecCtx, RunStop, Timing, TrapCause, UnitTiming,
};
use crate::mem::{layout, read_slice, write_slice, MainMemory};
use crate::mmio::{FaultPlan, MmioEffect, SharedDevices, StimPlan};
use crate::parallel::ParallelStats;
use crate::predecode::{CodeTable, PreInst};

use std::time::{Duration, Instant};

/// The clock model of a relaxed scheduler (exact scheduling always runs
/// the cycle-accurate model). Semantics are identical across models —
/// only the per-instruction cost charged to the local clock differs, so
/// architectural results never depend on the choice; interleaving (and
/// therefore shared-device ordering) may.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingModel {
    /// Exactly one cycle per retired instruction — the determinism
    /// baseline the relaxed schedulers have always used. Cycle counts
    /// equal retired-instruction counts by construction and are **not**
    /// comparable to exact-mode cycles.
    #[default]
    Unit,
    /// Static per-op-class costs from
    /// [`CostTable::DEFAULT`](crate::counters::CostTable::DEFAULT): a
    /// first-order collapse of the exact model (ALU/branch/load/store/
    /// mul/div/CSR/NPU classes) with no shared mutable state, so
    /// [`SchedMode::RelaxedParallel`] stays race-free and bit-identical
    /// across host-thread counts. Cycle counts approximate exact-mode
    /// cycles (the `scenario_battery` suite bounds the per-scenario
    /// estimated/exact ratio).
    Estimated,
}

impl TimingModel {
    /// Stable lowercase label ("unit" / "estimated") for rows and CLIs.
    pub fn label(self) -> &'static str {
        match self {
            TimingModel::Unit => "unit",
            TimingModel::Estimated => "estimated",
        }
    }
}

/// How the multi-core run loop interleaves cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedMode {
    /// Cycle-exact event-driven interleaving (the default): the core that
    /// is furthest behind in local time always executes next, ties go to
    /// the lowest hart id, and every timing model (caches, shared bus,
    /// hazards, divider) is charged per instruction. Bit-identical to
    /// single-stepping that schedule ([`System::run_stepped`]).
    #[default]
    Exact,
    /// Opt-in relaxed interleaving for throughput: cores execute
    /// round-robin in quanta of `quantum` clock cycles on the relaxed
    /// clock, whose per-instruction cost is set by `timing` (one cycle
    /// under [`TimingModel::Unit`], a static per-op-class cost under
    /// [`TimingModel::Estimated`]; no cache, bus, hazard or divider
    /// modelling either way). The barrier device becomes a blocking
    /// rendezvous — a core arriving at an incomplete round is descheduled
    /// until release instead of simulating its spin loop. Architectural
    /// results (registers, memory, spike rasters, console) are identical
    /// to [`SchedMode::Exact`] for guests whose cross-core sharing is
    /// confined to barrier/mutex synchronisation; cycle counts, per-core
    /// interleaving and the MMIO RNG/spike-log *order* are not preserved.
    /// Runs are fully deterministic.
    ///
    /// This is the one relaxed scheduler ([`crate::parallel`]) on one
    /// host thread: [`SchedMode::RelaxedParallel`] at the same quantum
    /// and clock is the same run, bit for bit, at any thread count.
    Relaxed {
        /// Scheduling quantum in relaxed-clock cycles (= instructions
        /// under `Unit` timing).
        /// Clamped to at least 1; `quantum = 1` interleaves instruction by
        /// instruction.
        quantum: u64,
        /// Relaxed-clock cost model.
        timing: TimingModel,
    },
    /// The relaxed scheduler of [`SchedMode::Relaxed`] on `host_threads`
    /// host threads: the quanta execute in waves against a sharded
    /// memory view (see [`crate::parallel`]). Shared-interactive device
    /// traffic (mutex, barrier arrivals, RNG, stimulus) is detected
    /// before it executes and committed op by op in ascending hart order,
    /// and each core's append-only device output (spike log, console,
    /// progress) is buffered per core and merged in the same hart order —
    /// so a run is **bit-identical to the stepped reference
    /// [`System::run_relaxed_stepped`] at the same quantum and clock, at
    /// every host-thread count**, one ([`SchedMode::Relaxed`]) included:
    /// registers, memory, cycles, instret, spike-log order, everything
    /// (the `prop_sched_parallel` suite pins this). The guest contract is
    /// the relaxed one, sharpened: cores must confine cross-core memory
    /// traffic to barrier/mutex synchronisation — between two device
    /// synchronisations, plain loads/stores of other cores' data race on
    /// the host.
    RelaxedParallel {
        /// Scheduling quantum in relaxed-clock cycles (= instructions
        /// under `Unit` timing).
        quantum: u64,
        /// Number of host threads, the coordinator included; `0`
        /// resolves via the `IZHI_HOST_THREADS` environment variable,
        /// then host parallelism
        /// ([`crate::parallel::resolve_host_threads`]).
        /// Results never depend on this value — only wall time does.
        host_threads: u32,
        /// Relaxed-clock cost model (the bit-identity contract holds per
        /// timing model).
        timing: TimingModel,
    },
}

impl SchedMode {
    /// Default quantum for relaxed scheduling: long enough to amortise all
    /// per-pick overhead, short enough to keep barrier-free cores loosely
    /// interleaved.
    pub const DEFAULT_QUANTUM: u64 = 50_000;

    /// Relaxed scheduling with the default quantum and Unit timing.
    pub fn relaxed() -> Self {
        SchedMode::Relaxed {
            quantum: Self::DEFAULT_QUANTUM,
            timing: TimingModel::Unit,
        }
    }

    /// Relaxed scheduling with the default quantum and Estimated timing.
    pub fn relaxed_estimated() -> Self {
        SchedMode::Relaxed {
            quantum: Self::DEFAULT_QUANTUM,
            timing: TimingModel::Estimated,
        }
    }

    /// The timing model this mode's clock runs on; `None` for exact
    /// scheduling (whose clock is the cycle-accurate model itself).
    pub fn timing(&self) -> Option<TimingModel> {
        match *self {
            SchedMode::Exact => None,
            SchedMode::Relaxed { timing, .. } | SchedMode::RelaxedParallel { timing, .. } => {
                Some(timing)
            }
        }
    }

    /// Stable label of the clock this mode reports: "exact", "unit" or
    /// "estimated" (battery rows and BENCH files record it).
    pub fn timing_label(&self) -> &'static str {
        self.timing().map_or("exact", TimingModel::label)
    }
}

/// Full system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of IzhiRISC-V cores.
    pub n_cores: u32,
    /// Multi-core scheduling mode (exact by default).
    pub sched: SchedMode,
    /// Core clock in Hz (30 MHz on the MAX10 build, 100 MHz on Agilex-7).
    pub clock_hz: f64,
    /// SDRAM size in bytes.
    pub sdram_size: u32,
    /// On-chip scratchpad size in bytes.
    pub scratch_size: u32,
    /// Per-core I-cache geometry.
    pub icache: CacheConfig,
    /// Per-core D-cache geometry.
    pub dcache: CacheConfig,
    /// Shared-bus/SDRAM timing.
    pub bus: BusTimings,
    /// Iterative divider latency (extra cycles per div/rem).
    pub div_latency: u64,
    /// Model the paper's proposed CSR writeback for nm results (§V-B),
    /// which removes the nm-writeback hazard stalls.
    pub csr_writeback: bool,
    /// Seed for the MMIO xorshift32 RNG.
    pub rng_seed: u32,
    /// Wall-clock budget for a run: `None` (the default) runs unwatched;
    /// `Some(d)` makes [`System::run`] return [`SimError::WallClock`]
    /// once `d` of host time has elapsed. Checks are cooperative and
    /// amortised, so enforcement is approximate (a batch granule late)
    /// but costs nothing on the hot path when unset.
    pub wall_limit: Option<Duration>,
    /// Deterministic fault-injection schedule (empty by default; an empty
    /// plan leaves every run bit-identical to an unplanned one).
    pub faults: FaultPlan,
    /// Deterministic stimulus-injection schedule served through the
    /// [`layout::MMIO_STIM`] port (empty by default; an empty plan leaves
    /// every run bit-identical to an unplanned one).
    pub stim: StimPlan,
    /// Superblock execution: fuse straight-line predecoded runs and
    /// dispatch them as one batch (see [`crate::predecode`]). On by
    /// default. Results are bit-identical either way (the exactness and
    /// template-identity suites pin it); `perf_baseline`'s `_nosb` rows
    /// turn it off to measure the tier's win.
    pub superblocks: bool,
    /// Kernel-span batch execution: run the engine's registered hot loops
    /// as host-native batches under the relaxed clocks (see
    /// [`crate::kernel`]; exact scheduling always interprets). On by
    /// default. Results are bit-identical either way (the exactness and
    /// template-identity suites pin it); `perf_baseline`'s `_nokernel`
    /// rows turn it off to measure the tier's win.
    pub kernels: bool,
    /// Assembler relaxation + peephole pass for engine-emitted guest code
    /// (see [`izhi_isa::asm::Assembler::relax`]). On by default.
    /// Architectural results are unchanged; instret strictly drops (the
    /// relaxation-soundness suite pins both). `perf_baseline`'s
    /// `_norelax` rows turn it off to run the seed's exact instruction
    /// stream.
    pub asm_relax: bool,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            n_cores: 1,
            sched: SchedMode::Exact,
            clock_hz: 30e6,
            sdram_size: 8 * 1024 * 1024,
            scratch_size: layout::SCRATCH_DEFAULT_SIZE,
            icache: CacheConfig::default(),
            // Longer D-cache lines amortise the streaming weight/noise
            // walks, landing hit rates in the paper's 96-100 % band.
            dcache: CacheConfig {
                size_bytes: 4096,
                line_bytes: 32,
            },
            bus: BusTimings::default(),
            div_latency: 16,
            csr_writeback: false,
            rng_seed: 0xC0FFEE,
            wall_limit: None,
            faults: FaultPlan::default(),
            stim: StimPlan::default(),
            superblocks: true,
            kernels: true,
            asm_relax: true,
        }
    }
}

impl SystemConfig {
    /// The paper's MAX10 dual-core configuration (30 MHz).
    pub fn max10_dual_core() -> Self {
        SystemConfig {
            n_cores: 2,
            ..Default::default()
        }
    }

    /// The paper's §VI-A three-core experiment: fitting a third core on
    /// the MAX10 required "drastically" smaller caches and a 20 MHz clock,
    /// "which had a detrimental impact on performance".
    pub fn max10_triple_core_reduced() -> Self {
        SystemConfig {
            n_cores: 3,
            clock_hz: 20e6,
            icache: CacheConfig {
                size_bytes: 1024,
                line_bytes: 16,
            },
            dcache: CacheConfig {
                size_bytes: 1024,
                line_bytes: 16,
            },
            ..Default::default()
        }
    }

    /// Convenience: n cores, everything else default.
    pub fn with_cores(n: u32) -> Self {
        SystemConfig {
            n_cores: n,
            ..Default::default()
        }
    }
}

/// State shared between all cores (memory, bus, devices, predecoded code).
#[derive(Debug)]
pub struct Shared {
    /// Functional memory.
    pub mem: MainMemory,
    /// The single shared bus to SDRAM.
    pub bus: BusArbiter,
    /// MMIO devices.
    pub dev: SharedDevices,
    /// Bus/SDRAM timing parameters.
    pub bus_timings: BusTimings,
    /// Divider latency.
    pub div_latency: u64,
    /// CSR-writeback hazard fix enabled.
    pub csr_writeback: bool,
    /// Predecoded instruction stream (replaces the seed's per-fetch
    /// `region_of` + `Option`-cache decode lookup; see [`crate::predecode`]).
    pub code: CodeTable,
    /// Superblock execution enabled ([`SystemConfig::superblocks`]).
    pub superblocks: bool,
    /// Kernel-span batch execution enabled ([`SystemConfig::kernels`]).
    pub kernels: bool,
}

/// The historical execution context: every method inlines to exactly the
/// field accesses the interpreter made before [`ExecCtx`] existed, so the
/// exact scheduler compiles to the same hot loop as before the
/// host-parallel refactor. The stepped references
/// ([`System::run_stepped`], [`System::run_relaxed_stepped`]) step on it
/// too.
impl ExecCtx for Shared {
    #[inline(always)]
    fn fetch(&mut self, pc: u32) -> PreInst {
        self.code.fetch(pc, &self.mem)
    }

    #[inline(always)]
    fn code_word(&self, pc: u32) -> Option<u32> {
        self.mem.read_u32(pc)
    }

    #[inline(always)]
    fn scratch_size(&self) -> u32 {
        self.mem.scratch_size()
    }

    #[inline(always)]
    fn sdram_size(&self) -> u32 {
        self.mem.sdram_size()
    }

    #[inline(always)]
    fn read_scratch(&self, off: usize, op: LoadOp) -> Option<u32> {
        read_slice(self.mem.scratch_bytes(), off, op)
    }

    #[inline(always)]
    fn read_sdram(&self, off: usize, op: LoadOp) -> Option<u32> {
        read_slice(self.mem.sdram_bytes(), off, op)
    }

    #[inline(always)]
    fn write_scratch(&mut self, off: usize, value: u32, op: StoreOp) -> bool {
        write_slice(self.mem.scratch_bytes_mut(), off, value, op)
    }

    #[inline(always)]
    fn write_sdram(&mut self, off: usize, value: u32, op: StoreOp) -> bool {
        write_slice(self.mem.sdram_bytes_mut(), off, value, op)
    }

    #[inline(always)]
    fn invalidate_store(&mut self, addr: u32) {
        self.code.invalidate_store(addr);
    }

    #[inline(always)]
    fn mmio_read(&mut self, core_id: u32, offset: u32, now: u64) -> u32 {
        self.dev.read(core_id, offset, now)
    }

    #[inline(always)]
    fn mmio_write(&mut self, core_id: u32, offset: u32, value: u32) -> MmioEffect {
        self.dev.write(core_id, offset, value)
    }

    #[inline(always)]
    fn console_extend(&mut self, bytes: &[u8]) {
        self.dev.console.extend_from_slice(bytes);
    }

    #[inline(always)]
    fn bus_acquire(&mut self, now: u64, duration: u64) -> u64 {
        self.bus.acquire(now, duration)
    }

    #[inline(always)]
    fn burst(&self, words: u64) -> u64 {
        self.bus_timings.burst(words)
    }

    #[inline(always)]
    fn div_latency(&self) -> u64 {
        self.div_latency
    }

    #[inline(always)]
    fn csr_writeback(&self) -> bool {
        self.csr_writeback
    }

    #[inline(always)]
    fn superblocks_enabled(&self) -> bool {
        self.superblocks
    }

    #[inline(always)]
    fn superblock(&mut self, pc: u32, buf: &mut [PreInst; crate::predecode::MAX_SB]) -> (u32, u32) {
        self.code.superblock(pc, buf)
    }

    #[inline(always)]
    fn kernels_enabled(&self) -> bool {
        // The span check folds in here so runs that never registered a
        // span (hand-written guests, tests) skip the per-dispatch probe.
        self.kernels && !self.code.kernels.is_empty()
    }

    #[inline(always)]
    fn kernel_match(&self, pc: u32) -> Option<crate::kernel::KernelHeader> {
        self.code.kernels.lookup(pc)
    }

    #[inline(always)]
    fn kernel_trace(&self, idx: u8) -> &[PreInst] {
        self.code.kernels.trace(idx)
    }

    #[inline(always)]
    fn kernel_state(&self, idx: u8) -> crate::kernel::SpanState {
        self.code.kernels.state(idx)
    }

    #[inline(always)]
    fn kernel_set_state(&mut self, idx: u8, state: crate::kernel::SpanState) {
        self.code.kernels.set_state(idx, state);
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A core trapped.
    Trap {
        /// Which core.
        core: u32,
        /// Why.
        cause: TrapCause,
    },
    /// The cycle budget ran out before all cores halted.
    Timeout {
        /// The budget that was exceeded.
        max_cycles: u64,
    },
    /// The wall-clock budget ([`SystemConfig::wall_limit`]) ran out
    /// before all cores halted. Unlike [`SimError::Timeout`] this is a
    /// *host*-side condition: the guest may be perfectly healthy on a
    /// loaded machine, so supervisors treat it as retryable.
    WallClock {
        /// The wall-clock limit that was exceeded.
        limit: Duration,
    },
    /// A program segment does not fit in mapped memory.
    LoadError {
        /// Base address of the offending segment.
        base: u32,
    },
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::Trap { core, cause } => write!(f, "core {core}: {cause}"),
            SimError::Timeout { max_cycles } => {
                write!(f, "simulation exceeded {max_cycles} cycles")
            }
            SimError::WallClock { limit } => {
                write!(
                    f,
                    "simulation exceeded the wall-clock limit of {:.3}s",
                    limit.as_secs_f64()
                )
            }
            SimError::LoadError { base } => {
                write!(f, "program segment at {base:#010x} does not fit in memory")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Cooperative wall-clock watchdog ([`SystemConfig::wall_limit`]).
///
/// The schedulers call [`Watchdog::tick`] at fine-grained sites (per
/// instruction in the fused loop, per pick in the scan loop) — it
/// amortises the actual clock read over [`Watchdog::STRIDE`] calls — and
/// [`Watchdog::check`] at coarse batch boundaries (per slice, rotation or
/// round). Unarmed (the default), both short-circuit on one never-taken
/// branch and the clock is never read.
pub(crate) struct Watchdog {
    deadline: Option<Instant>,
    limit: Duration,
    countdown: u32,
}

impl Watchdog {
    /// `tick` calls per actual clock read: at interpreter speeds this
    /// bounds the check granularity well under a millisecond while
    /// keeping the amortised cost to a decrement and compare.
    const STRIDE: u32 = 16_384;

    pub(crate) fn new(limit: Option<Duration>) -> Self {
        Watchdog {
            deadline: limit.map(|d| Instant::now() + d),
            limit: limit.unwrap_or_default(),
            countdown: Self::STRIDE,
        }
    }

    /// Whether a deadline is armed at all (schedulers use this to keep
    /// their unwatched paths structurally identical to the historical
    /// ones).
    pub(crate) fn armed(&self) -> bool {
        self.deadline.is_some()
    }

    /// Amortised check for per-instruction / per-pick call sites.
    #[inline(always)]
    pub(crate) fn tick(&mut self) -> Result<(), SimError> {
        if self.deadline.is_none() {
            return Ok(());
        }
        self.countdown -= 1;
        if self.countdown != 0 {
            return Ok(());
        }
        self.countdown = Self::STRIDE;
        self.check()
    }

    /// Full check for batch-boundary call sites.
    #[inline]
    pub(crate) fn check(&self) -> Result<(), SimError> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(SimError::WallClock { limit: self.limit }),
            _ => Ok(()),
        }
    }
}

/// Summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunExit {
    /// Wall-clock cycles (slowest core).
    pub cycles: u64,
    /// Total instructions retired across cores.
    pub instret: u64,
}

/// A complete simulated IzhiRISC-V system.
#[derive(Debug)]
pub struct System {
    pub(crate) cfg: SystemConfig,
    pub(crate) cores: Vec<Core>,
    pub(crate) shared: Shared,
    /// Work split of the last relaxed run ([`System::parallel_stats`]).
    pub(crate) par_stats: ParallelStats,
}

impl System {
    /// Build the core array for a configuration (fresh architectural
    /// state, faults armed per the fault plan).
    fn build_cores(cfg: &SystemConfig) -> Vec<Core> {
        (0..cfg.n_cores)
            .map(|id| {
                let mut core = Core::new(id, Cache::new(cfg.icache), Cache::new(cfg.dcache));
                if let Some(spec) = cfg.faults.for_core(id) {
                    core.arm_fault(spec.at_instret, spec.kind);
                }
                core
            })
            .collect()
    }

    /// Build the shared device block for a configuration (seeded RNG,
    /// stimulus schedule installed).
    fn build_devices(cfg: &SystemConfig) -> SharedDevices {
        let mut dev = SharedDevices::new(cfg.n_cores, cfg.rng_seed);
        if !cfg.stim.is_empty() {
            dev.set_stim_plan(&cfg.stim);
        }
        dev
    }

    /// Build a system from a configuration.
    pub fn new(cfg: SystemConfig) -> Self {
        let cores = Self::build_cores(&cfg);
        let shared = Shared {
            mem: MainMemory::new(cfg.sdram_size, cfg.scratch_size),
            bus: BusArbiter::new(),
            dev: Self::build_devices(&cfg),
            bus_timings: cfg.bus,
            div_latency: cfg.div_latency,
            csr_writeback: cfg.csr_writeback,
            // Demand-paged: costs nothing until code executes.
            code: CodeTable::new(cfg.sdram_size, cfg.scratch_size),
            superblocks: cfg.superblocks,
            kernels: cfg.kernels,
        };
        System {
            cfg,
            cores,
            shared,
            par_stats: ParallelStats::default(),
        }
    }

    /// Build a system from a prebuilt memory image and predecode table —
    /// the run-template fast path. The resulting system is bit-identical
    /// to [`System::new`] followed by [`System::load_program`] and the
    /// same data uploads: cores start fresh at `entry`, devices are
    /// re-seeded deterministically from the configuration, and the
    /// caller-supplied memory/predecode state stands in for the assembly,
    /// copy and predecode work that was already paid when the snapshot
    /// was built.
    pub fn from_snapshot(cfg: SystemConfig, mem: MainMemory, code: CodeTable, entry: u32) -> Self {
        let mut cores = Self::build_cores(&cfg);
        for core in &mut cores {
            core.set_pc(entry);
        }
        let shared = Shared {
            mem,
            bus: BusArbiter::new(),
            dev: Self::build_devices(&cfg),
            bus_timings: cfg.bus,
            div_latency: cfg.div_latency,
            csr_writeback: cfg.csr_writeback,
            code,
            superblocks: cfg.superblocks,
            kernels: cfg.kernels,
        };
        System {
            cfg,
            cores,
            shared,
            par_stats: ParallelStats::default(),
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Load an assembled program: copy all segments, lower every loaded
    /// word into the predecoded stream, and point every core's pc at the
    /// entry (guest code branches on the core-id MMIO register).
    pub fn load_program(&mut self, prog: &Program) -> bool {
        for seg in &prog.segments {
            if !self.shared.mem.write_bytes(seg.base, &seg.data) {
                return false;
            }
        }
        for seg in &prog.segments {
            self.shared
                .code
                .preload(seg.base, seg.data.len() as u32, &self.shared.mem);
        }
        for core in &mut self.cores {
            core.set_pc(prog.entry);
        }
        true
    }

    /// Borrow a core.
    pub fn core(&self, idx: usize) -> &Core {
        &self.cores[idx]
    }

    /// Borrow a core mutably (e.g. to preset registers).
    pub fn core_mut(&mut self, idx: usize) -> &mut Core {
        &mut self.cores[idx]
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Shared state (memory, devices) for host-side setup and readback.
    pub fn shared(&self) -> &Shared {
        &self.shared
    }

    /// Mutable shared state.
    pub fn shared_mut(&mut self) -> &mut Shared {
        &mut self.shared
    }

    /// Console output so far.
    pub fn console(&self) -> String {
        self.shared.dev.console_string()
    }

    /// Run until every core halts or `max_cycles` elapse on any core.
    ///
    /// Under [`SchedMode::Exact`] (the default) scheduling is event-driven:
    /// the core that is furthest behind in local time always executes next
    /// (ties go to the lowest hart id), so shared-resource ordering
    /// approximates real concurrency. The loop is **exactly** equivalent to
    /// single-stepping that schedule ([`System::run_stepped`]), instruction
    /// by instruction — the two-core case runs a fused inner loop and the
    /// general case batches each pick, but both only ever continue a core
    /// while it would still be the scheduler's pick, so rasters, counters
    /// and cycle counts are bit-identical to the single-stepped reference
    /// (the predecode regression and exactness suites and the `prop_exact`
    /// property pin this).
    ///
    /// Under [`SchedMode::Relaxed`] and [`SchedMode::RelaxedParallel`]
    /// cores run round-robin in long quanta on the relaxed clock, through
    /// the one relaxed scheduler ([`crate::parallel`]) on one host thread
    /// or on `host_threads`; see the enum docs for the semantics contract.
    /// Either run equals [`System::run_relaxed_stepped`] bit for bit, up
    /// to a trap or a budget stop: those report the reference's error,
    /// but cores later in hart order than the one that stopped may have
    /// run further than the reference runs them.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunExit, SimError> {
        let mut wd = Watchdog::new(self.cfg.wall_limit);
        let wd = &mut wd;
        self.par_stats = ParallelStats::default();
        let (quantum, host_threads, timing) = match self.cfg.sched {
            SchedMode::Exact => {
                if self.cores.len() == 2 {
                    self.run_exact_fused(max_cycles, wd)?;
                }
                self.run_exact_scan(max_cycles, wd)?;
                return Ok(self.exit_summary());
            }
            SchedMode::Relaxed { quantum, timing } => (quantum, 1, timing),
            SchedMode::RelaxedParallel {
                quantum,
                host_threads,
                timing,
            } => (quantum, host_threads, timing),
        };
        match timing {
            TimingModel::Unit => {
                self.run_relaxed_parallel::<UnitTiming>(quantum, host_threads, max_cycles, wd)?
            }
            TimingModel::Estimated => {
                self.run_relaxed_parallel::<EstimatedTiming>(quantum, host_threads, max_cycles, wd)?
            }
        }
        Ok(self.exit_summary())
    }

    /// The [`RunExit`] of the cores' current state.
    fn exit_summary(&self) -> RunExit {
        RunExit {
            cycles: self.cores.iter().map(|c| c.time).max().unwrap_or(0),
            instret: self.cores.iter().map(|c| c.counters.instret).sum(),
        }
    }

    /// Fused two-core inner loop: both cores stay register-resident in one
    /// loop that re-picks per instruction (min time, tie to core 0), so no
    /// per-pick scan, batch-bound computation or counter mirroring happens
    /// while both cores are live. The pick rule is the event-driven
    /// schedule verbatim, which keeps the loop instruction-for-instruction
    /// identical to [`System::run_stepped`] (the exactness suites and the
    /// `prop_exact` property pin this). It returns once one core halts;
    /// the survivor then finishes under [`System::run_exact_scan`].
    ///
    /// The loop holds two copies of the interpreter, one per core: each
    /// arm of the pick inlines [`System::fused_step`] for a fixed core,
    /// so each copy's dispatch branches train on one core's instruction
    /// stream. Both copies must stay inlined; stepping a picked
    /// `&mut Core` through one shared copy ran the paper's two-core exact
    /// `net8020` about 1.3× slower. The function itself stays out of
    /// line: inlined into [`System::run`], the fused loop ran slower.
    #[inline(never)]
    fn run_exact_fused(&mut self, max_cycles: u64, wd: &mut Watchdog) -> Result<(), SimError> {
        let (head, tail) = self.cores.split_at_mut(1);
        let (c0, c1) = (&mut head[0], &mut tail[0]);
        if c0.halted() || c1.halted() {
            return Ok(());
        }
        let fused = Self::fused_exact_loop(c0, c1, &mut self.shared, wd, max_cycles);
        c0.sync_counters();
        c1.sync_counters();
        fused
    }

    /// The fused two-core pick-and-step loop of
    /// [`System::run_exact_fused`]. Each arm of the pick steps a fixed
    /// core through its own inlined copy of [`System::fused_step`].
    fn fused_exact_loop(
        c0: &mut Core,
        c1: &mut Core,
        shared: &mut Shared,
        wd: &mut Watchdog,
        max_cycles: u64,
    ) -> Result<(), SimError> {
        loop {
            // Amortised wall-clock check (a no-op branch when no
            // deadline is armed; never perturbs the schedule).
            wd.tick()?;
            // Event-driven pick: minimum local time, tie to hart 0.
            if c0.time <= c1.time {
                if Self::fused_step(c0, 0, shared, max_cycles)? {
                    return Ok(());
                }
            } else if Self::fused_step(c1, 1, shared, max_cycles)? {
                return Ok(());
            }
        }
    }

    /// One pick of [`System::fused_exact_loop`]: the budget check, one
    /// instruction, then whether the core halted — the order of
    /// `run_while`, so the interleaving matches the single-stepped
    /// schedule even at the timeout boundary. Always inlined: each call
    /// site is one per-core copy of the interpreter.
    #[inline(always)]
    fn fused_step(
        c: &mut Core,
        id: u32,
        shared: &mut Shared,
        max_cycles: u64,
    ) -> Result<bool, SimError> {
        if c.time > max_cycles {
            return Err(SimError::Timeout { max_cycles });
        }
        c.exec_one::<ExactTiming, _>(shared)
            .map_err(|cause| SimError::Trap { core: id, cause })?;
        Ok(c.halted())
    }

    /// General exact scheduler: scan for the pick and its runner-up
    /// bound, then batch the pick up to that bound. With one live core
    /// there is no runner-up, so the pick runs to completion in one
    /// batch (sliced only when a wall-clock deadline is armed).
    fn run_exact_scan(&mut self, max_cycles: u64, wd: &mut Watchdog) -> Result<(), SimError> {
        // Wall-clock checks are paced by *simulated* time: picks can batch
        // millions of cycles or a single instruction, so neither per-pick
        // clock reads nor per-pick counters bound the check interval. The
        // pick's time is the global minimum and only ever advances, so
        // reading the clock each time it crosses a `SLICE` boundary (and
        // clamping each batch to a slice) bounds the unchecked span.
        const SLICE: u64 = 8_000_000;
        let mut next_check = self
            .cores
            .iter()
            .map(|c| c.time)
            .min()
            .unwrap_or(0)
            .saturating_add(SLICE);
        loop {
            // One scan finds both the pick `i` (minimum time, lowest
            // index) and the runner-up bound it may run up to.
            let mut pick = usize::MAX;
            let mut pick_time = u64::MAX;
            let mut limit = u64::MAX;
            let mut limit_idx = usize::MAX;
            for (k, c) in self.cores.iter().enumerate() {
                if c.halted() {
                    continue;
                }
                if c.time < pick_time {
                    limit = pick_time;
                    limit_idx = pick;
                    pick = k;
                    pick_time = c.time;
                } else if c.time < limit {
                    limit = c.time;
                    limit_idx = k;
                }
            }
            if pick == usize::MAX {
                return Ok(()); // all halted
            }
            if wd.armed() && pick_time >= next_check {
                wd.check()?;
                next_check = pick_time.saturating_add(SLICE);
            }
            let i = pick;
            // Adaptive batch: core `i` may run exactly as long as the
            // scheduler would keep picking it (time strictly below the
            // runner-up, or equal with a lower hart id) — so the batch
            // is instruction-for-instruction identical to rescanning
            // after every step.
            let bound = if i < limit_idx {
                limit
            } else {
                limit.saturating_sub(1)
            };
            // Bound resumption is exactness-preserving: a slice-clamped
            // batch just re-picks the same core, so the schedule is
            // unchanged — only the check cadence is.
            let bound = if wd.armed() {
                bound.min(pick_time.saturating_add(SLICE))
            } else {
                bound
            };
            let stop = self.cores[i]
                .run_while::<ExactTiming, _>(&mut self.shared, bound, max_cycles)
                .map_err(|cause| SimError::Trap {
                    core: i as u32,
                    cause,
                })?;
            if stop == RunStop::Budget {
                return Err(SimError::Timeout { max_cycles });
            }
        }
    }

    /// Where the last [`System::run`] did its relaxed work: rounds, waves,
    /// and the instructions retired in waves versus in the sequential
    /// commit pass. The counts follow from the schedule alone, so
    /// [`SchedMode::Relaxed`] and [`SchedMode::RelaxedParallel`] report
    /// the same ones at every host-thread count. All zeros after an exact
    /// run.
    pub fn parallel_stats(&self) -> ParallelStats {
        self.par_stats
    }

    /// Per-core metrics for the measured region (ROI delta when the guest
    /// used the ROI MMIO markers).
    pub fn metrics(&self, core: usize) -> Metrics {
        self.cores[core].roi_counters().metrics(self.cfg.clock_hz)
    }

    /// Execute exactly one instruction on one core (single-step debugging;
    /// the CLI's `--trace` mode uses this).
    pub fn step_core(&mut self, idx: usize) -> Result<(), TrapCause> {
        self.cores[idx].step(&mut self.shared)
    }

    /// The exact schedule by definition, one instruction per pick: step
    /// the live core with the smallest local time (lowest hart on ties)
    /// through [`System::step_core`] until every core halts, with the
    /// budget check and errors of [`System::run`]. This is the reference
    /// [`SchedMode::Exact`] runs must equal bit for bit (the exactness
    /// suites and the `prop_exact` property compare against it); it
    /// ignores [`SystemConfig::sched`] and
    /// [`SystemConfig::wall_limit`].
    pub fn run_stepped(&mut self, max_cycles: u64) -> Result<RunExit, SimError> {
        loop {
            let mut pick: Option<usize> = None;
            for (i, c) in self.cores.iter().enumerate() {
                if c.halted() {
                    continue;
                }
                match pick {
                    Some(j) if self.cores[j].time <= c.time => {}
                    _ => pick = Some(i),
                }
            }
            let Some(i) = pick else {
                return Ok(self.exit_summary());
            };
            if self.cores[i].time > max_cycles {
                return Err(SimError::Timeout { max_cycles });
            }
            self.step_core(i).map_err(|cause| SimError::Trap {
                core: i as u32,
                cause,
            })?;
        }
    }

    /// The relaxed schedule by definition, one instruction per step: each
    /// round, every live core in ascending hart order runs a quantum of
    /// `quantum` cycles on the `timing` clock, one `Core::exec_one` at a
    /// time on the whole-system state — no superblocks, kernel spans or
    /// waves. A core that arrives at an incomplete barrier round parks
    /// until the barrier's generation moves, and a round in which every
    /// live core stays parked times out. This is the reference
    /// [`SchedMode::Relaxed`] and [`SchedMode::RelaxedParallel`] runs must
    /// equal bit for bit (the `prop_sched_parallel` suite compares them);
    /// like [`System::run_stepped`] it ignores [`SystemConfig::sched`] and
    /// [`SystemConfig::wall_limit`].
    pub fn run_relaxed_stepped(
        &mut self,
        quantum: u64,
        timing: TimingModel,
        max_cycles: u64,
    ) -> Result<RunExit, SimError> {
        match timing {
            TimingModel::Unit => self.relaxed_stepped::<UnitTiming>(quantum, max_cycles),
            TimingModel::Estimated => self.relaxed_stepped::<EstimatedTiming>(quantum, max_cycles),
        }
    }

    /// [`System::run_relaxed_stepped`] on the clock `T`.
    fn relaxed_stepped<T: Timing>(
        &mut self,
        quantum: u64,
        max_cycles: u64,
    ) -> Result<RunExit, SimError> {
        let quantum = quantum.max(1);
        // Generation at which each parked core arrived; it runs again once
        // the device's generation has moved past it.
        let mut parked_gen: Vec<Option<u32>> = vec![None; self.cores.len()];
        loop {
            let mut any_ran = false;
            let mut all_halted = true;
            for (i, (core, parked)) in self.cores.iter_mut().zip(&mut parked_gen).enumerate() {
                if core.halted() {
                    continue;
                }
                all_halted = false;
                if let Some(gen) = *parked {
                    if self.shared.dev.barrier_generation() == gen {
                        continue;
                    }
                    *parked = None;
                    core.clear_parked();
                }
                any_ran = true;
                let bound = core.time.saturating_add(quantum - 1);
                // `Core::run_while`'s checks, in its order, before every
                // instruction.
                let stop = loop {
                    if core.halted() {
                        break Ok(RunStop::Halted);
                    }
                    if core.parked() {
                        break Ok(RunStop::Parked);
                    }
                    if core.time > bound {
                        break Ok(RunStop::Bound);
                    }
                    if core.time > max_cycles {
                        break Ok(RunStop::Budget);
                    }
                    if let Err(cause) = core.exec_one::<T, _>(&mut self.shared) {
                        break Err(cause);
                    }
                };
                core.sync_counters();
                match stop.map_err(|cause| SimError::Trap {
                    core: i as u32,
                    cause,
                })? {
                    RunStop::Halted | RunStop::Bound => {}
                    RunStop::Parked => *parked = Some(self.shared.dev.barrier_generation()),
                    RunStop::Budget => return Err(SimError::Timeout { max_cycles }),
                    RunStop::SharedOp => unreachable!("the whole-system context never defers"),
                }
            }
            if all_halted {
                return Ok(self.exit_summary());
            }
            if !any_ran {
                // Every live core is parked at a barrier round that can no
                // longer complete (some expected arrival halted first).
                // The exact scheduler would spin those cores into the cycle
                // budget; surface the same condition directly.
                return Err(SimError::Timeout { max_cycles });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use izhi_isa::asm::Assembler;
    use izhi_isa::Reg;

    fn run_asm(src: &str) -> System {
        let prog = Assembler::new().assemble(src).expect("asm");
        let mut sys = System::new(SystemConfig::default());
        assert!(sys.load_program(&prog));
        sys.run(10_000_000).expect("run");
        sys
    }

    #[test]
    fn arithmetic_loop() {
        let sys = run_asm(
            "
            _start: li t0, 0
                    li t1, 0
            loop:   addi t1, t1, 1
                    add  t0, t0, t1
                    li   t2, 10
                    bne  t1, t2, loop
                    ebreak
            ",
        );
        assert_eq!(sys.core(0).reg(Reg::T0), 55);
    }

    #[test]
    fn memory_and_mul() {
        let sys = run_asm(
            "
            .data 0x1000
            arr: .word 3, 5, 7, 9
            .text
            _start: la   a0, arr
                    li   t0, 0      # index
                    li   t1, 1      # product
            loop:   slli t2, t0, 2
                    add  t2, t2, a0
                    lw   t3, (t2)
                    mul  t1, t1, t3
                    addi t0, t0, 1
                    li   t4, 4
                    bne  t0, t4, loop
                    ebreak
            ",
        );
        assert_eq!(sys.core(0).reg(Reg::T1), 3 * 5 * 7 * 9);
    }

    #[test]
    fn division_edge_cases() {
        let sys = run_asm(
            "
            _start: li  t0, -8
                    li  t1, 3
                    div t2, t0, t1      # -2
                    rem t3, t0, t1      # -2
                    li  t4, 5
                    li  t5, 0
                    divu t6, t4, t5     # div by zero -> all ones
                    ebreak
            ",
        );
        assert_eq!(sys.core(0).reg(Reg::T2) as i32, -2);
        assert_eq!(sys.core(0).reg(Reg::T3) as i32, -2);
        assert_eq!(sys.core(0).reg(Reg::T6), u32::MAX);
        // div consumed extra cycles
        assert!(sys.core(0).counters.div_stall_cycles >= 3 * 16);
    }

    #[test]
    fn scratchpad_roundtrip() {
        let sys = run_asm(
            "
            _start: li  t0, 0x10000000
                    li  t1, 0xABCD
                    sw  t1, (t0)
                    lw  t2, (t0)
                    sh  t1, 8(t0)
                    lhu t3, 8(t0)
                    ebreak
            ",
        );
        assert_eq!(sys.core(0).reg(Reg::T2), 0xABCD);
        assert_eq!(sys.core(0).reg(Reg::T3), 0xABCD);
    }

    #[test]
    fn console_mmio_and_ecall() {
        let sys = run_asm(
            "
            _start: li  t0, 0xF0000000
                    li  t1, 'H'
                    sw  t1, (t0)
                    li  t1, 'i'
                    sw  t1, (t0)
                    li  a0, 42
                    li  a7, 1
                    ecall           # prints 42
                    ebreak
            ",
        );
        assert_eq!(sys.console(), "Hi42");
    }

    #[test]
    fn csr_counters_increase() {
        let sys = run_asm(
            "
            _start: csrr s0, mcycle
                    nop
                    nop
                    nop
                    csrr s1, mcycle
                    csrr s2, mhartid
                    ebreak
            ",
        );
        let c0 = sys.core(0).reg(Reg::S0);
        let c1 = sys.core(0).reg(Reg::S1);
        assert!(c1 > c0, "mcycle must advance: {c0} -> {c1}");
        assert_eq!(sys.core(0).reg(Reg::S2), 0);
    }

    #[test]
    fn illegal_instruction_traps() {
        let prog = Assembler::new()
            .assemble("_start: .word 0xFFFFFFFF")
            .unwrap();
        let mut sys = System::new(SystemConfig::default());
        sys.load_program(&prog);
        match sys.run(1000) {
            Err(SimError::Trap {
                cause: TrapCause::IllegalInstruction { .. },
                ..
            }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unmapped_access_traps() {
        let prog = Assembler::new()
            .assemble("_start: li t0, 0x80000000\n lw t1, (t0)\n ebreak")
            .unwrap();
        let mut sys = System::new(SystemConfig::default());
        sys.load_program(&prog);
        match sys.run(1000) {
            Err(SimError::Trap {
                cause: TrapCause::BadAccess { store: false, .. },
                ..
            }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn misaligned_word_traps() {
        let prog = Assembler::new()
            .assemble("_start: li t0, 0x1001\n lw t1, (t0)\n ebreak")
            .unwrap();
        let mut sys = System::new(SystemConfig::default());
        sys.load_program(&prog);
        match sys.run(1000) {
            Err(SimError::Trap {
                cause: TrapCause::Misaligned { .. },
                ..
            }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn timeout_on_infinite_loop() {
        let prog = Assembler::new().assemble("_start: j _start").unwrap();
        let mut sys = System::new(SystemConfig::default());
        sys.load_program(&prog);
        assert!(matches!(sys.run(1000), Err(SimError::Timeout { .. })));
    }

    #[test]
    fn timeout_on_dual_core_infinite_loop() {
        // Exercises the fused two-core loop's budget check, and the fused
        // tail's when one core halts first.
        let both = Assembler::new().assemble("_start: j _start").unwrap();
        let mut sys = System::new(SystemConfig::max10_dual_core());
        sys.load_program(&both);
        assert!(matches!(sys.run(1000), Err(SimError::Timeout { .. })));

        let one = Assembler::new()
            .assemble(
                "_start: li  t0, 0xF0000004
                         lw  t1, (t0)
                         beqz t1, spin
                         ebreak
                 spin:   j   spin",
            )
            .unwrap();
        let mut sys = System::new(SystemConfig::max10_dual_core());
        sys.load_program(&one);
        assert!(matches!(sys.run(1000), Err(SimError::Timeout { .. })));
    }

    #[test]
    fn load_use_hazard_costs_one_cycle() {
        // Two variants of the same code: consumer immediately after a load
        // vs one independent instruction in between.
        let tight = run_asm(
            "
            _start: li  t0, 0x10000000
                    sw  t0, (t0)
                    lw  t1, (t0)
                    addi t2, t1, 1   # load-use: +1 stall
                    ebreak
            ",
        );
        let spaced = run_asm(
            "
            _start: li  t0, 0x10000000
                    sw  t0, (t0)
                    lw  t1, (t0)
                    nop              # fills the bubble
                    addi t2, t1, 1
                    ebreak
            ",
        );
        assert_eq!(tight.core(0).counters.hazard_stalls, 1);
        assert_eq!(spaced.core(0).counters.hazard_stalls, 0);
        // The nop variant retires one more instruction in the same cycles.
        assert_eq!(tight.core(0).time, spaced.core(0).time);
    }

    #[test]
    fn nm_hazard_removed_by_csr_writeback() {
        let src = "
            _start: li   a6, 0x10000000
                    sw   a6, (a6)
                    li   a7, 0
                    add  a2, x0, a6
                    nmpn a2, a6, a7
                    addi t0, a2, 0    # consumes the spike flag immediately
                    ebreak
        ";
        let prog = Assembler::new().assemble(src).unwrap();
        let mut sys = System::new(SystemConfig::default());
        sys.load_program(&prog);
        sys.run(100_000).unwrap();
        assert!(sys.core(0).counters.hazard_stalls >= 1);

        let cfg = SystemConfig {
            csr_writeback: true,
            ..Default::default()
        };
        let mut sys2 = System::new(cfg);
        sys2.load_program(&prog);
        sys2.run(100_000).unwrap();
        assert_eq!(sys2.core(0).counters.hazard_stalls, 0);
    }

    #[test]
    fn dual_core_runs_both() {
        let src = "
            _start: li   t0, 0xF0000004   # core id register
                    lw   t1, (t0)
                    li   t2, 0x10000000
                    slli t3, t1, 2
                    add  t2, t2, t3
                    addi t4, t1, 100
                    sw   t4, (t2)
                    ebreak
        ";
        let prog = Assembler::new().assemble(src).unwrap();
        let mut sys = System::new(SystemConfig::max10_dual_core());
        sys.load_program(&prog);
        sys.run(1_000_000).unwrap();
        assert_eq!(sys.shared().mem.read_u32(layout::SCRATCH_BASE), Some(100));
        assert_eq!(
            sys.shared().mem.read_u32(layout::SCRATCH_BASE + 4),
            Some(101)
        );
    }

    #[test]
    fn barrier_synchronises_cores() {
        // Core 0 writes a flag before the barrier; core 1 reads it after.
        let src = "
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
                    ebreak
        ";
        let prog = Assembler::new().assemble(src).unwrap();
        let mut sys = System::new(SystemConfig::max10_dual_core());
        sys.load_program(&prog);
        sys.run(1_000_000).unwrap();
        assert_eq!(sys.core(0).reg(Reg::A0), 7777);
        assert_eq!(sys.core(1).reg(Reg::A0), 7777);
    }

    #[test]
    fn mutex_provides_mutual_exclusion() {
        // Both cores increment a shared counter 1000 times under the mutex.
        let src = "
            .equ MUTEX, 0xF000000C
            .equ COUNTER, 0x10000000
            _start: li   s0, 1000
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
        let prog = Assembler::new().assemble(src).unwrap();
        let mut sys = System::new(SystemConfig::max10_dual_core());
        sys.load_program(&prog);
        sys.run(50_000_000).unwrap();
        assert_eq!(sys.shared().mem.read_u32(layout::SCRATCH_BASE), Some(2000));
    }

    #[test]
    fn roi_markers_scope_the_counters() {
        let src = "
            .equ ROI, 0xF0000024
            _start: li   t0, ROI
                    li   t1, 500
            warm:   addi t1, t1, -1     # untimed warmup loop
                    bnez t1, warm
                    li   t2, 1
                    sw   t2, (t0)       # ROI start
                    li   t1, 100
            hot:    addi t1, t1, -1
                    bnez t1, hot
                    sw   x0, (t0)       # ROI stop
                    li   t1, 500
            cool:   addi t1, t1, -1
                    bnez t1, cool
                    ebreak
        ";
        let prog = Assembler::new().assemble(src).unwrap();
        let mut sys = System::new(SystemConfig::default());
        sys.load_program(&prog);
        sys.run(1_000_000).unwrap();
        let roi = sys.core(0).roi_counters();
        let total = sys.core(0).counters;
        // ROI covers ~200 instructions of the 1200+ executed.
        assert!(
            roi.instret >= 200 && roi.instret <= 215,
            "roi = {}",
            roi.instret
        );
        assert!(total.instret > 2000, "total = {}", total.instret);
    }

    #[test]
    fn spike_log_collects_words() {
        let src = "
            _start: li  t0, 0xF000001C
                    li  t1, 0x00010005   # t=1, neuron 5
                    sw  t1, (t0)
                    li  t1, 0x00020007
                    sw  t1, (t0)
                    ebreak
        ";
        let prog = Assembler::new().assemble(src).unwrap();
        let mut sys = System::new(SystemConfig::default());
        sys.load_program(&prog);
        sys.run(10_000).unwrap();
        assert_eq!(sys.shared().dev.spike_log, vec![0x00010005, 0x00020007]);
    }

    /// The barrier test program, shared by the exact and relaxed variants.
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
                    ebreak
        ";

    fn relaxed_cfg(n_cores: u32, quantum: u64) -> SystemConfig {
        SystemConfig {
            n_cores,
            sched: SchedMode::Relaxed {
                quantum,
                timing: TimingModel::Unit,
            },
            ..Default::default()
        }
    }

    fn estimated_cfg(n_cores: u32, quantum: u64) -> SystemConfig {
        SystemConfig {
            n_cores,
            sched: SchedMode::Relaxed {
                quantum,
                timing: TimingModel::Estimated,
            },
            ..Default::default()
        }
    }

    #[test]
    fn relaxed_single_core_uses_one_cycle_per_instruction() {
        let prog = Assembler::new()
            .assemble(
                "
            _start: li t0, 0
                    li t1, 0
            loop:   addi t1, t1, 1
                    add  t0, t0, t1
                    li   t2, 10
                    bne  t1, t2, loop
                    ebreak
            ",
            )
            .unwrap();
        let mut sys = System::new(relaxed_cfg(1, 1000));
        assert!(sys.load_program(&prog));
        let exit = sys.run(10_000_000).unwrap();
        assert_eq!(sys.core(0).reg(Reg::T0), 55);
        // cycles == instret holds for *Unit timing only* — it is the
        // definition of that model, not a property of relaxed scheduling.
        // Estimated timing deliberately breaks it (see the test below);
        // no production code may rely on it.
        assert_eq!(exit.cycles, exit.instret, "unit-timing clock is 1 IPC");
    }

    #[test]
    fn estimated_timing_charges_more_than_unit_and_is_deterministic() {
        let src = "
            _start: li t0, 0
                    li t1, 0
            loop:   addi t1, t1, 1
                    add  t0, t0, t1
                    li   t2, 10
                    bne  t1, t2, loop
                    ebreak
            ";
        let run_cfg = |cfg: SystemConfig| {
            let prog = Assembler::new().assemble(src).unwrap();
            let mut sys = System::new(cfg);
            assert!(sys.load_program(&prog));
            let exit = sys.run(10_000_000).unwrap();
            assert_eq!(sys.core(0).reg(Reg::T0), 55);
            exit
        };
        let est = run_cfg(estimated_cfg(1, 1000));
        let unit = run_cfg(relaxed_cfg(1, 1000));
        // Same instructions retire under both relaxed clocks...
        assert_eq!(est.instret, unit.instret);
        // ...but the estimated clock charges the branch class extra, so
        // cycles must exceed instret — the old 1-IPC identity is gone.
        assert!(
            est.cycles > est.instret,
            "estimated clock degenerated to 1 IPC: {} cycles / {} instret",
            est.cycles,
            est.instret
        );
        // And it stays fully deterministic.
        assert_eq!(est, run_cfg(estimated_cfg(1, 1000)));
    }

    #[test]
    fn estimated_timing_preserves_architectural_state() {
        // The barrier-coupled program must end in the same architectural
        // state under exact scheduling and relaxed-estimated scheduling.
        let prog = Assembler::new().assemble(BARRIER_SRC).unwrap();
        let mut exact = System::new(SystemConfig::max10_dual_core());
        exact.load_program(&prog);
        exact.run(1_000_000).unwrap();
        let mut est = System::new(estimated_cfg(2, 7));
        est.load_program(&prog);
        est.run(1_000_000).unwrap();
        for core in 0..2 {
            for r in 0..32u8 {
                assert_eq!(
                    exact.core(core).reg(Reg(r)),
                    est.core(core).reg(Reg(r)),
                    "core {core} x{r}"
                );
            }
        }
        assert_eq!(
            exact.shared().mem.read_u32(layout::SCRATCH_BASE),
            est.shared().mem.read_u32(layout::SCRATCH_BASE)
        );
    }

    #[test]
    fn relaxed_barrier_parks_instead_of_spinning() {
        for quantum in [1u64, 7, SchedMode::DEFAULT_QUANTUM] {
            let prog = Assembler::new().assemble(BARRIER_SRC).unwrap();
            let mut sys = System::new(relaxed_cfg(2, quantum));
            sys.load_program(&prog);
            sys.run(1_000_000).unwrap();
            assert_eq!(sys.core(0).reg(Reg::A0), 7777, "quantum {quantum}");
            assert_eq!(sys.core(1).reg(Reg::A0), 7777, "quantum {quantum}");
            // The parked core re-checks the generation exactly once after
            // release, so neither core retires more than a handful of spin
            // iterations.
            let total: u64 = (0..2).map(|i| sys.core(i).counters.instret).sum();
            assert!(total < 60, "spin loops were simulated: {total} instret");
        }
    }

    #[test]
    fn relaxed_matches_exact_architectural_state() {
        // Barrier-synchronised cross-core communication: both modes must
        // agree on every register and the shared scratch word; cycle
        // counts may differ (that is the documented trade).
        let prog = Assembler::new().assemble(BARRIER_SRC).unwrap();
        let mut exact = System::new(SystemConfig::max10_dual_core());
        exact.load_program(&prog);
        exact.run(1_000_000).unwrap();
        let mut relaxed = System::new(relaxed_cfg(2, 3));
        relaxed.load_program(&prog);
        relaxed.run(1_000_000).unwrap();
        for core in 0..2 {
            for r in 0..32u8 {
                assert_eq!(
                    exact.core(core).reg(Reg(r)),
                    relaxed.core(core).reg(Reg(r)),
                    "core {core} x{r}"
                );
            }
        }
        assert_eq!(
            exact.shared().mem.read_u32(layout::SCRATCH_BASE),
            relaxed.shared().mem.read_u32(layout::SCRATCH_BASE)
        );
    }

    #[test]
    fn relaxed_mutex_still_provides_mutual_exclusion() {
        let src = "
            .equ MUTEX, 0xF000000C
            .equ COUNTER, 0x10000000
            _start: li   s0, 1000
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
        let prog = Assembler::new().assemble(src).unwrap();
        let mut sys = System::new(relaxed_cfg(2, 64));
        sys.load_program(&prog);
        sys.run(50_000_000).unwrap();
        assert_eq!(sys.shared().mem.read_u32(layout::SCRATCH_BASE), Some(2000));
    }

    #[test]
    fn relaxed_runs_are_deterministic() {
        let run = || {
            let prog = Assembler::new().assemble(BARRIER_SRC).unwrap();
            let mut sys = System::new(relaxed_cfg(2, 5));
            sys.load_program(&prog);
            let exit = sys.run(1_000_000).unwrap();
            (
                exit.cycles,
                exit.instret,
                sys.core(0).time,
                sys.core(1).time,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn relaxed_unreleasable_barrier_times_out() {
        // Core 1 halts without arriving; core 0 parks at a round that can
        // never complete — the scheduler must surface a timeout, not hang.
        let src = "
            _start: li   t0, 0xF0000004
                    lw   t1, (t0)
                    bnez t1, done
                    li   t4, 0xF0000010
                    lw   t5, (t4)
                    sw   x0, (t4)          # core 0 arrives
            spin:   lw   t6, (t4)
                    beq  t6, t5, spin
            done:   ebreak
        ";
        let prog = Assembler::new().assemble(src).unwrap();
        let mut sys = System::new(relaxed_cfg(2, 16));
        sys.load_program(&prog);
        assert!(matches!(sys.run(100_000), Err(SimError::Timeout { .. })));
    }

    #[test]
    fn relaxed_trap_reports_the_faulting_core() {
        // Core 1 jumps into an unmapped region; core 0 loops forever. The
        // trap must carry hart 1 regardless of rotation order.
        let src = "
            _start: li   t0, 0xF0000004
                    lw   t1, (t0)
                    bnez t1, bad
            loop:   j    loop
            bad:    li   t2, 0x80000000
                    lw   t3, (t2)
                    ebreak
        ";
        let prog = Assembler::new().assemble(src).unwrap();
        let mut sys = System::new(relaxed_cfg(2, 32));
        sys.load_program(&prog);
        match sys.run(10_000_000) {
            Err(SimError::Trap { core: 1, cause }) => {
                assert!(matches!(cause, TrapCause::BadAccess { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nmpn_full_flow_in_guest() {
        // Configure an RS neuron, drive it with constant current for 2000
        // half-steps, count spikes, and leave the count in s0.
        let src = "
            .equ VU_ADDR, 0x10000000
            _start: li   a6, 0x06990029      # b=0.2|a=0.02 in Q4.11: 410<<16 | 41
                    li   a7, 0x4000BF00      # d=8.0 Q4.11 <<16 | c=-65 Q7.8
                    nmldl x0, a6, a7
                    li   a6, 0
                    nmldh x0, a6, x0         # h = 0.5 ms, no pin
                    li   s1, VU_ADDR
                    li   t0, 0xBF00F2C0      # v=-65 Q7.8 | u=-13 Q7.8 (0xF2C0)
                    sw   t0, (s1)
                    li   s0, 0               # spike count
                    li   s2, 2000            # steps
                    li   a7, 0x000A0000      # Isyn = 10.0 in Q15.16
            loop:   lw   a6, (s1)            # VU word
                    add  a2, x0, s1          # address
                    nmpn a2, a6, a7
                    add  s0, s0, a2          # accumulate spikes
                    addi s2, s2, -1
                    bnez s2, loop
                    ebreak
        ";
        let prog = Assembler::new().assemble(src).unwrap();
        let mut sys = System::new(SystemConfig::default());
        sys.load_program(&prog);
        sys.run(10_000_000).unwrap();
        let spikes = sys.core(0).reg(Reg::S0);
        assert!((2..=100).contains(&spikes), "spikes = {spikes}");
        assert_eq!(sys.core(0).counters.nmpn, 2000);
    }

    #[test]
    fn wall_clock_limit_stops_an_infinite_loop() {
        // The guest never halts and the cycle budget is effectively
        // unlimited; only the wall-clock watchdog can end the run. Every
        // scheduling mode must surface the same error.
        let prog = Assembler::new().assemble("_start: j _start").unwrap();
        for sched in [
            SchedMode::Exact,
            SchedMode::relaxed(),
            SchedMode::RelaxedParallel {
                quantum: SchedMode::DEFAULT_QUANTUM,
                host_threads: 2,
                timing: TimingModel::Unit,
            },
        ] {
            for n_cores in [1u32, 2, 3] {
                let mut sys = System::new(SystemConfig {
                    n_cores,
                    sched,
                    wall_limit: Some(Duration::from_millis(20)),
                    ..Default::default()
                });
                sys.load_program(&prog);
                let start = Instant::now();
                match sys.run(u64::MAX) {
                    Err(SimError::WallClock { limit }) => {
                        assert_eq!(limit, Duration::from_millis(20));
                    }
                    other => panic!("{sched:?}/{n_cores}: {other:?}"),
                }
                assert!(
                    start.elapsed() < Duration::from_secs(30),
                    "watchdog fired far too late under {sched:?}/{n_cores}"
                );
            }
        }
    }

    #[test]
    fn wall_clock_limit_leaves_finishing_runs_alone() {
        let prog = Assembler::new()
            .assemble(
                "_start: li t0, 100
                 loop:   addi t0, t0, -1
                         bnez t0, loop
                         ebreak",
            )
            .unwrap();
        let mut sys = System::new(SystemConfig {
            wall_limit: Some(Duration::from_secs(60)),
            ..Default::default()
        });
        sys.load_program(&prog);
        sys.run(1_000_000).expect("finishes well inside the limit");
    }

    #[test]
    fn injected_guest_trap_fires_at_the_same_instret_everywhere() {
        use crate::mmio::{FaultKind, FaultPlan};
        let prog = Assembler::new().assemble("_start: j _start").unwrap();
        for sched in [SchedMode::Exact, SchedMode::relaxed()] {
            let mut sys = System::new(SystemConfig {
                sched,
                faults: FaultPlan::none().with(0, 37, FaultKind::GuestTrap),
                ..Default::default()
            });
            sys.load_program(&prog);
            match sys.run(u64::MAX) {
                Err(SimError::Trap {
                    core: 0,
                    cause: TrapCause::InjectedFault { instret, .. },
                }) => assert_eq!(instret, 37, "under {sched:?}"),
                other => panic!("{sched:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn injected_spike_corruption_flips_exactly_one_word() {
        use crate::mmio::{FaultKind, FaultPlan};
        // Log 0..8 to the spike FIFO; corrupt the word logged by the 20th
        // instruction or later.
        let src = "
            _start: li   t0, 0xF000001C
                    li   t1, 0
            loop:   sw   t1, (t0)
                    addi t1, t1, 1
                    li   t2, 8
                    bne  t1, t2, loop
                    ebreak
        ";
        let prog = Assembler::new().assemble(src).unwrap();
        let clean = {
            let mut sys = System::new(SystemConfig::default());
            sys.load_program(&prog);
            sys.run(1_000_000).unwrap();
            sys.shared().dev.spike_log.clone()
        };
        let mut sys = System::new(SystemConfig {
            faults: FaultPlan::none().with(0, 20, FaultKind::CorruptSpike(0xDEAD_0000)),
            ..Default::default()
        });
        sys.load_program(&prog);
        sys.run(1_000_000).unwrap();
        let dirty = &sys.shared().dev.spike_log;
        assert_eq!(clean.len(), dirty.len());
        let flipped: Vec<usize> = (0..clean.len()).filter(|&i| clean[i] != dirty[i]).collect();
        assert_eq!(flipped.len(), 1, "clean={clean:?} dirty={dirty:?}");
        assert_eq!(dirty[flipped[0]], clean[flipped[0]] ^ 0xDEAD_0000);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        let src = "
            _start: li   t0, 0xF000001C
                    li   t1, 0
            loop:   sw   t1, (t0)
                    addi t1, t1, 17
                    li   t2, 170
                    bne  t1, t2, loop
                    ebreak
        ";
        let prog = Assembler::new().assemble(src).unwrap();
        let run = |cfg: SystemConfig| {
            let mut sys = System::new(cfg);
            sys.load_program(&prog);
            let exit = sys.run(1_000_000).unwrap();
            (exit, sys.shared().dev.spike_log.clone())
        };
        let base = run(SystemConfig::default());
        let planned = run(SystemConfig {
            faults: crate::mmio::FaultPlan::none(),
            wall_limit: Some(Duration::from_secs(600)),
            ..Default::default()
        });
        assert_eq!(base, planned);
    }
}
