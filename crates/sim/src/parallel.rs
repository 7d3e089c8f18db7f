//! The relaxed scheduler: [`SchedMode::Relaxed`] runs it on one host
//! thread, [`SchedMode::RelaxedParallel`] on several.
//!
//! [`SchedMode::RelaxedParallel`]: crate::system::SchedMode::RelaxedParallel
//! [`SchedMode::Relaxed`]: crate::system::SchedMode::Relaxed
//! [`SchedMode::Exact`]: crate::system::SchedMode::Exact
//!
//! The relaxed schedule runs cores round-robin in quanta: within a round,
//! core 0 executes its whole quantum, then core 1, and so on, and a core
//! that arrives at an incomplete barrier round parks until the round
//! completes. [`System::run_relaxed_stepped`] is that schedule by
//! definition, one instruction per step. This module runs the quanta on
//! host threads instead, while keeping every run **bit-identical** to the
//! stepped reference at every host-thread count, one included. Four
//! mechanisms make that possible:
//!
//! 1. **Sharded RAM** (`RamView`). Worker threads access guest SDRAM and
//!    scratchpad through bounds-checked raw pointers into the one backing
//!    allocation. The *race-free-guest contract* (the relaxed contract,
//!    sharpened): cores may only communicate through the barrier/mutex
//!    devices, so segments that no device synchronisation orders touch
//!    disjoint sets of addresses and the concurrent raw accesses never
//!    alias. A guest that breaks the contract races on the host — exactly
//!    the class of program the relaxed schedule already excludes (use
//!    [`SchedMode::Exact`] for it).
//!
//! 2. **Deferred interactive devices.** MMIO traffic whose result or
//!    effect depends on other cores — mutex try-acquire/release, barrier
//!    arrivals, the shared RNG, the stimulus port — is *detected before
//!    it executes* (every instruction that can touch MMIO computes its
//!    address from registers, so a one-shot pre-check per instruction
//!    suffices) and ends the core's *segment*. The coordinator executes
//!    each such op **alone, in ascending hart order, against the real
//!    devices** — the exact order the stepped reference produces.
//!    Barrier *generation reads* are not deferred: a segment answers them
//!    with the generation that was current when it was posted. That is
//!    exact. An arrival that leaves a round incomplete parks its core
//!    until the generation moves, so a core arrives at most once per
//!    generation, and generation g completes only after all n cores have
//!    arrived in g. A posted core has not arrived in the current
//!    generation, so every read it makes before its own next arrival
//!    returns that generation in the stepped reference too; the commit
//!    pass asserts it. Per-core MMIO traffic (core id, cycle counter,
//!    halt, ROI) executes in place.
//!
//! 3. **Buffered append-only devices.** Spike-log, console and progress
//!    writes land in a per-core `DeviceBuffer` during a segment and are
//!    merged into the shared devices in ascending hart order at commit
//!    time. Since the stepped reference runs the round's quanta in
//!    exactly that order, the merged logs match it word for word.
//!
//! 4. **Per-core predecode shards.** Each core decodes through its own
//!    clone of the system's [`CodeTable`], a pure cache over RAM. A store
//!    that lands where the storing core's shard may hold decoded code (a
//!    materialised code window or a kernel span) is logged, and when the
//!    segment commits the coordinator replays the log into every other
//!    shard — their decoded slots, superblocks and kernel spans — and
//!    widens their windows to the storing shard's, before any later wave
//!    runs. So code one core patches and another runs after a barrier
//!    runs patched, as in the stepped reference. Engine guests never
//!    store into code, and their stores pay one untaken branch for the
//!    log.
//!
//! **Waves.** A round starts with one *wave*: a segment for every core
//! that is certain to run at its turn — live and unparked, or parked at a
//! generation that has already moved (generations only grow, so its
//! release check at its turn cannot fail). The commit pass then walks
//! the cores in ascending hart order, flushing each finished segment.
//! When a segment stopped at a deferred op, the coordinator executes that
//! one instruction, and if the core's quantum goes on it posts the rest
//! of the quantum as another wave — together with every later parked
//! core the op released — and waits for that wave before the cursor
//! moves on. A wave only runs side by side segments that no device
//! synchronisation orders in the stepped reference, and the
//! race-free-guest contract already requires those to touch disjoint
//! data.
//!
//! The coordinator and `host_threads − 1` helper threads (spawned once
//! per `run()` in a `std::thread::scope`) claim a wave's segments from
//! one shared queue; helpers park on a condvar between waves, and a wave
//! of one segment runs on the coordinator without waking any. At one
//! host thread ([`SchedMode::Relaxed`]) there are no helpers and every
//! wave runs on the coordinator. A guest core parked at an incomplete
//! barrier round is simply not posted — nobody spins. On the error paths
//! (trap / cycle budget) the reported error and core are identical to the
//! stepped reference, but cores *later* in hart order may have run
//! further than it runs them.
//!
//! Scheduling cost intuition: every instruction except the deferred ops
//! themselves runs in a wave, so the speedup is bounded by how many
//! cores a wave holds. Barrier-light workloads (the
//! `Net8020SweepWorkload` parameter sweeps: zero cross-core traffic after
//! the start-up barrier) post every core in one wave per round;
//! barrier-per-tick workloads post most cores at the start of a round
//! and the cores the completing arrival releases in a later wave; guests
//! dense in mutex or RNG traffic run one single-segment wave per
//! interactive op. On a host with fewer CPUs than threads (CI runners,
//! 1-CPU dev boxes) wall clock does not improve at all — the value there
//! is that results, counters and logs are *guaranteed unchanged*, which
//! is what the differential suites exercise. [`ParallelStats`] (read via
//! [`System::parallel_stats`]) counts rounds, waves, and the instructions
//! retired in waves versus in the commit pass.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use izhi_isa::inst::{LoadOp, StoreOp};

use crate::cpu::{Core, ExecCtx, RunStop, Timing, TrapCause};
use crate::kernel::SpanState;
use crate::mem::{layout, MainMemory};
use crate::mmio::{is_interactive, MmioEffect, SharedDevices};
use crate::predecode::{CodeMem, CodeTable, MicroOp, PreInst, MAX_SB};
use crate::system::{SimError, System, Watchdog};

/// Resolve a requested host-thread count: `0` means "auto" — the
/// `IZHI_HOST_THREADS` environment variable if set (CI forces `2` there so
/// single-CPU runners still exercise the threaded path), otherwise the
/// host's available parallelism.
pub fn resolve_host_threads(requested: u32) -> u32 {
    if requested != 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("IZHI_HOST_THREADS") {
        if let Ok(n) = v.parse::<u32>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// Bounds-checked raw view of guest RAM, shareable across host threads.
///
/// # Safety contract
///
/// Dereferencing relies on the race-free-guest contract: segments that
/// run side by side in a wave never access the same guest address (one of
/// them writing). The pointers stay valid for the whole `run()`
/// call — [`MainMemory`] is not resized or otherwise touched through
/// references while a `RamView` of it is live.
#[derive(Clone, Copy)]
pub(crate) struct RamView {
    sdram: *mut u8,
    sdram_len: usize,
    scratch: *mut u8,
    scratch_len: usize,
}

// SAFETY: the raw pointers are only dereferenced under the race-free-guest
// contract documented on the type; the view itself is plain data.
unsafe impl Send for RamView {}
unsafe impl Sync for RamView {}

impl RamView {
    pub(crate) fn new(mem: &mut MainMemory) -> Self {
        let sdram = mem.sdram_bytes_mut();
        let (sdram, sdram_len) = (sdram.as_mut_ptr(), sdram.len());
        let scratch = mem.scratch_bytes_mut();
        let (scratch, scratch_len) = (scratch.as_mut_ptr(), scratch.len());
        RamView {
            sdram,
            sdram_len,
            scratch,
            scratch_len,
        }
    }

    /// Width-dispatched read at `off` into the region behind `ptr`.
    #[inline(always)]
    fn read_at(ptr: *const u8, len: usize, off: usize, op: LoadOp) -> Option<u32> {
        let width = match op {
            LoadOp::Lw => 4,
            LoadOp::Lh | LoadOp::Lhu => 2,
            LoadOp::Lb | LoadOp::Lbu => 1,
        };
        if off.checked_add(width)? > len {
            return None;
        }
        // SAFETY: bounds just checked; aliasing per the type's contract.
        unsafe {
            Some(match op {
                LoadOp::Lw => {
                    let mut b = [0u8; 4];
                    core::ptr::copy_nonoverlapping(ptr.add(off), b.as_mut_ptr(), 4);
                    u32::from_le_bytes(b)
                }
                LoadOp::Lh | LoadOp::Lhu => {
                    let mut b = [0u8; 2];
                    core::ptr::copy_nonoverlapping(ptr.add(off), b.as_mut_ptr(), 2);
                    u32::from(u16::from_le_bytes(b))
                }
                LoadOp::Lb | LoadOp::Lbu => u32::from(ptr.add(off).read()),
            })
        }
    }

    /// Width-dispatched write at `off` into the region behind `ptr`.
    #[inline(always)]
    fn write_at(ptr: *mut u8, len: usize, off: usize, value: u32, op: StoreOp) -> bool {
        let width = match op {
            StoreOp::Sw => 4,
            StoreOp::Sh => 2,
            StoreOp::Sb => 1,
        };
        match off.checked_add(width) {
            Some(end) if end <= len => {}
            _ => return false,
        }
        // SAFETY: bounds just checked; aliasing per the type's contract.
        unsafe {
            match op {
                StoreOp::Sw => {
                    let b = value.to_le_bytes();
                    core::ptr::copy_nonoverlapping(b.as_ptr(), ptr.add(off), 4);
                }
                StoreOp::Sh => {
                    let b = (value as u16).to_le_bytes();
                    core::ptr::copy_nonoverlapping(b.as_ptr(), ptr.add(off), 2);
                }
                StoreOp::Sb => ptr.add(off).write(value as u8),
            }
        }
        true
    }
}

impl CodeMem for RamView {
    #[inline]
    fn code_word(&self, addr: u32) -> Option<u32> {
        if (addr as usize) < self.sdram_len {
            Self::read_at(self.sdram, self.sdram_len, addr as usize, LoadOp::Lw)
        } else {
            let off = addr.wrapping_sub(layout::SCRATCH_BASE) as usize;
            Self::read_at(self.scratch, self.scratch_len, off, LoadOp::Lw)
        }
    }
}

/// Per-core buffer for append-only device traffic produced during a
/// segment; merged in hart order at commit time.
#[derive(Debug, Default)]
pub(crate) struct DeviceBuffer {
    console: Vec<u8>,
    spike_log: Vec<u32>,
    progress: Vec<u32>,
}

impl DeviceBuffer {
    fn flush_into(&mut self, dev: &mut SharedDevices) {
        dev.console.append(&mut self.console);
        dev.spike_log.append(&mut self.spike_log);
        dev.progress.append(&mut self.progress);
    }
}

/// Pre-execution check: does the next instruction touch an interactive
/// MMIO register? Only loads, stores and `nmpn` (whose store address is
/// `rd`) can access MMIO at all, and all three compute their address from
/// registers already visible here — so this check is *complete*: a
/// segment can never see an interactive access.
#[inline]
fn targets_interactive_mmio(regs: &[u32; 32], pre: &PreInst) -> bool {
    let (addr, write) = match pre.op {
        MicroOp::Lb | MicroOp::Lh | MicroOp::Lw | MicroOp::Lbu | MicroOp::Lhu => {
            (regs[pre.rs1 as usize].wrapping_add(pre.imm as u32), false)
        }
        MicroOp::Sb | MicroOp::Sh | MicroOp::Sw => {
            (regs[pre.rs1 as usize].wrapping_add(pre.imm as u32), true)
        }
        MicroOp::Nmpn => (regs[pre.rd as usize], true),
        _ => return false,
    };
    let offset = addr.wrapping_sub(layout::MMIO_BASE);
    offset < layout::MMIO_SIZE && is_interactive(offset, write)
}

/// Where a shard context's device traffic goes — the only thing that
/// differs between a segment and a deferred op. RAM, predecode-shard and
/// timing behaviour are shared via the single [`ShardCtx`] below, so a
/// fix to the memory path cannot land in one and miss the other.
trait DevSink {
    /// Whether interactive MMIO must stop the core before it executes
    /// ([`ExecCtx::defers_shared_op`]): only a buffered segment cannot
    /// run it.
    const DEFERS_SHARED: bool;
    fn mmio_read(&mut self, core_id: u32, offset: u32, now: u64) -> u32;
    fn mmio_write(&mut self, core_id: u32, offset: u32, value: u32) -> MmioEffect;
    fn console_extend(&mut self, bytes: &[u8]);
}

/// Segment policy: append-only traffic buffers per core, pure reads
/// (core id, core count, own cycle counter) answer from snapshots, a
/// barrier-generation read answers the generation the segment was posted
/// at (exact; see the module docs), and interactive offsets are
/// unreachable — the scheduler's pre-check stops the core first.
struct BufferedDev<'a> {
    buf: &'a mut DeviceBuffer,
    n_cores: u32,
    generation: u32,
}

impl DevSink for BufferedDev<'_> {
    const DEFERS_SHARED: bool = true;

    #[inline]
    fn mmio_read(&mut self, core_id: u32, offset: u32, now: u64) -> u32 {
        match offset {
            layout::MMIO_COREID => core_id,
            layout::MMIO_NCORES => self.n_cores,
            layout::MMIO_CYCLE => now as u32,
            layout::MMIO_BARRIER => self.generation,
            layout::MMIO_MUTEX | layout::MMIO_RAND | layout::MMIO_STIM => {
                debug_assert!(false, "interactive MMIO read escaped the pre-check");
                0
            }
            _ => 0,
        }
    }

    #[inline]
    fn mmio_write(&mut self, _core_id: u32, offset: u32, value: u32) -> MmioEffect {
        match offset {
            layout::MMIO_CONSOLE => {
                self.buf.console.push(value as u8);
                MmioEffect::None
            }
            layout::MMIO_SPIKE_LOG => {
                self.buf.spike_log.push(value);
                MmioEffect::None
            }
            layout::MMIO_PROGRESS => {
                self.buf.progress.push(value);
                MmioEffect::None
            }
            layout::MMIO_HALT => MmioEffect::Halt,
            layout::MMIO_ROI => {
                if value != 0 {
                    MmioEffect::RoiStart
                } else {
                    MmioEffect::RoiStop
                }
            }
            layout::MMIO_MUTEX | layout::MMIO_BARRIER | layout::MMIO_STIM => {
                debug_assert!(false, "interactive MMIO write escaped the pre-check");
                MmioEffect::None
            }
            _ => MmioEffect::None,
        }
    }

    #[inline]
    fn console_extend(&mut self, bytes: &[u8]) {
        self.buf.console.extend_from_slice(bytes);
    }
}

/// Commit-pass policy: the real shared device block — a deferred
/// interactive op executes in place, in hart order.
struct RealDev<'a>(&'a mut SharedDevices);

impl DevSink for RealDev<'_> {
    const DEFERS_SHARED: bool = false;

    #[inline]
    fn mmio_read(&mut self, core_id: u32, offset: u32, now: u64) -> u32 {
        self.0.read(core_id, offset, now)
    }

    #[inline]
    fn mmio_write(&mut self, core_id: u32, offset: u32, value: u32) -> MmioEffect {
        self.0.write(core_id, offset, value)
    }

    #[inline]
    fn console_extend(&mut self, bytes: &[u8]) {
        self.0.console.extend_from_slice(bytes);
    }
}

/// Execution context for segments and deferred ops alike: sharded RAM
/// and the core's own predecode shard, with device traffic routed
/// through a [`DevSink`] policy.
struct ShardCtx<'a, D> {
    ram: RamView,
    code: &'a mut CodeTable,
    /// Stores that may have hit decoded code, for the commit pass to
    /// replay into the other shards ([`CoreSlot::code_stores`]).
    code_stores: &'a mut Vec<u32>,
    dev: D,
    csr_writeback: bool,
    superblocks: bool,
    kernels: bool,
}

impl<D: DevSink> ExecCtx for ShardCtx<'_, D> {
    #[inline(always)]
    fn fetch(&mut self, pc: u32) -> PreInst {
        self.code.fetch(pc, &self.ram)
    }

    #[inline(always)]
    fn code_word(&self, pc: u32) -> Option<u32> {
        self.ram.code_word(pc)
    }

    #[inline(always)]
    fn scratch_size(&self) -> u32 {
        self.ram.scratch_len as u32
    }

    #[inline(always)]
    fn sdram_size(&self) -> u32 {
        self.ram.sdram_len as u32
    }

    #[inline(always)]
    fn read_scratch(&self, off: usize, op: LoadOp) -> Option<u32> {
        RamView::read_at(self.ram.scratch, self.ram.scratch_len, off, op)
    }

    #[inline(always)]
    fn read_sdram(&self, off: usize, op: LoadOp) -> Option<u32> {
        RamView::read_at(self.ram.sdram, self.ram.sdram_len, off, op)
    }

    #[inline(always)]
    fn write_scratch(&mut self, off: usize, value: u32, op: StoreOp) -> bool {
        RamView::write_at(self.ram.scratch, self.ram.scratch_len, off, value, op)
    }

    #[inline(always)]
    fn write_sdram(&mut self, off: usize, value: u32, op: StoreOp) -> bool {
        RamView::write_at(self.ram.sdram, self.ram.sdram_len, off, value, op)
    }

    #[inline(always)]
    fn invalidate_store(&mut self, addr: u32) {
        // This core's shard drops its stale decodes now; the commit pass
        // replays the store into the other shards (`publish_code`).
        if self.code.invalidate_store(addr) {
            self.code_stores.push(addr);
        }
    }

    #[inline(always)]
    fn mmio_read(&mut self, core_id: u32, offset: u32, now: u64) -> u32 {
        self.dev.mmio_read(core_id, offset, now)
    }

    #[inline(always)]
    fn mmio_write(&mut self, core_id: u32, offset: u32, value: u32) -> MmioEffect {
        self.dev.mmio_write(core_id, offset, value)
    }

    #[inline(always)]
    fn console_extend(&mut self, bytes: &[u8]) {
        self.dev.console_extend(bytes);
    }

    fn bus_acquire(&mut self, _now: u64, _duration: u64) -> u64 {
        unreachable!("relaxed contexts never instantiate the timing model")
    }

    fn burst(&self, _words: u64) -> u64 {
        unreachable!("relaxed contexts never instantiate the timing model")
    }

    fn div_latency(&self) -> u64 {
        unreachable!("relaxed contexts never instantiate the timing model")
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
    fn superblock(&mut self, pc: u32, buf: &mut [PreInst; MAX_SB]) -> (u32, u32) {
        // This core's own shard: block state diverges with the shard's
        // invalidations, which is exactly what per-core self-modifying
        // code needs.
        self.code.superblock(pc, buf)
    }

    #[inline(always)]
    fn kernels_enabled(&self) -> bool {
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

    #[inline(always)]
    fn defers_shared_op(&mut self, regs: &[u32; 32], pc: u32) -> bool {
        D::DEFERS_SHARED
            && pc.is_multiple_of(4)
            && targets_interactive_mmio(regs, &self.code.fetch(pc, &self.ram))
    }
}

/// What a posted segment left behind for the commit pass.
enum Pending {
    /// Nothing to commit: no segment was posted this round (halted core,
    /// or parked at a generation that has not moved), or its outcome was
    /// already committed.
    Idle,
    /// A segment is posted and not yet run.
    Job,
    /// The segment finished with this result.
    Done(Result<RunStop, TrapCause>),
    /// The segment panicked (host bug or an injected
    /// `FaultKind::HostPanic`). The thread that ran it caught the payload
    /// so the wave still completes; the coordinator re-raises it on the
    /// calling thread once the helpers have shut down.
    Panicked(Box<dyn Any + Send>),
}

/// Why `coordinate` abandoned the run: a simulator error (reported
/// exactly as the stepped reference would), or a segment panic to
/// re-raise on the calling thread after the thread scope has joined.
enum RoundError {
    Sim(SimError),
    Panic(Box<dyn Any + Send>),
}

impl From<SimError> for RoundError {
    fn from(e: SimError) -> Self {
        RoundError::Sim(e)
    }
}

/// Where a relaxed run did its work, counted once per segment and per
/// deferred op, never in the per-instruction loop. Read it with
/// [`System::parallel_stats`] after `run`. Every count is a function of
/// the schedule alone, so it is the same at every host-thread count,
/// [`SchedMode::Relaxed`]'s one included.
///
/// [`SchedMode::Relaxed`]: crate::system::SchedMode::Relaxed
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Scheduling rounds (at most one quantum per live core each).
    pub rounds: u64,
    /// Waves run, the first wave of each round included.
    pub waves: u64,
    /// Instructions retired in wave segments, on whichever thread (helper
    /// or coordinator) claimed them.
    pub wave_instret: u64,
    /// Instructions retired in the sequential commit pass: the deferred
    /// interactive ops, one instruction each.
    pub commit_instret: u64,
}

/// One core's state while the run is threaded. The mutex is uncontended
/// by construction (each posted segment is claimed by exactly one thread,
/// and the coordinator touches a slot only outside the waves that run
/// it); it exists to move the state across threads safely and cheaply.
struct CoreSlot {
    core: Core,
    /// This core's private predecode shard (diverging copies of a pure
    /// cache — see [`CodeTable`]).
    code: CodeTable,
    /// Addresses this core stored to since its last commit where its
    /// shard may hold decoded code (a materialised window or a kernel
    /// span): the other shards must see the same stores.
    code_stores: Vec<u32>,
    /// The shard's window extent ([`CodeTable::window`]) the other shards
    /// were last widened to.
    window: (usize, bool),
    buf: DeviceBuffer,
    /// Quantum bound of the posted segment. The rest of a quantum after a
    /// deferred op keeps the bound its first segment was posted with.
    bound: u64,
    /// Barrier generation when the segment was posted: the answer to
    /// every generation read the segment makes.
    generation: u32,
    /// Instructions the last segment retired.
    retired: u64,
    pending: Pending,
}

impl CoreSlot {
    fn post(&mut self, bound: u64, generation: u32) {
        self.bound = bound;
        self.generation = generation;
        self.pending = Pending::Job;
    }

    /// Post a fresh quantum if the core is certain to run at its turn
    /// this round: it is live, and unparked or parked at a generation
    /// other than the current `generation`. Generations only grow, so
    /// such a core passes its release check at its turn whatever the
    /// harts before it commit first; it is released here.
    fn post_quantum(&mut self, parked: &mut Option<u32>, generation: u32, quantum: u64) -> bool {
        if self.core.halted() || *parked == Some(generation) {
            return false;
        }
        if parked.take().is_some() {
            self.core.clear_parked();
        }
        self.post(self.core.time.saturating_add(quantum - 1), generation);
        true
    }
}

/// Per-run constants shared by the coordinator and every helper.
#[derive(Clone, Copy)]
struct RunEnv {
    ram: RamView,
    n_cores: u32,
    csr_writeback: bool,
    superblocks: bool,
    kernels: bool,
    quantum: u64,
    max_cycles: u64,
}

/// Lock a scheduler mutex (a core slot or the wave queue). Segments catch
/// their own panics inside the slot lock and no guest code runs under the
/// queue lock; a panic on the coordinator while it holds a slot (in a
/// deferred op, or a broken invariant) abandons the run, after which only
/// `into_inner` touches the slots. So no `lock` ever meets a poisoned
/// mutex.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("no scheduler lock is poisoned while the run goes on")
}

/// Run one posted segment against a buffered device sink, up to its
/// quantum bound or the first interactive op. A panic is caught here —
/// before it can poison the slot mutex or strand the wave — and parked
/// in the slot for the coordinator to re-raise. The `AssertUnwindSafe`
/// is sound because a `Panicked` slot aborts the whole run: its
/// possibly-inconsistent core state is never used again.
fn run_segment<T: Timing>(slot: &Mutex<CoreSlot>, env: RunEnv) {
    let mut slot = lock(slot);
    let CoreSlot {
        core,
        code,
        code_stores,
        buf,
        bound,
        generation,
        retired,
        pending,
        ..
    } = &mut *slot;
    debug_assert!(matches!(pending, Pending::Job));
    let mut ctx = ShardCtx {
        ram: env.ram,
        code,
        code_stores,
        dev: BufferedDev {
            buf,
            n_cores: env.n_cores,
            generation: *generation,
        },
        csr_writeback: env.csr_writeback,
        superblocks: env.superblocks,
        kernels: env.kernels,
    };
    let start = core.counters.instret;
    let run = catch_unwind(AssertUnwindSafe(|| {
        core.run_while::<T, _>(&mut ctx, *bound, env.max_cycles)
    }));
    *retired = core.counters.instret - start;
    *pending = match run {
        Ok(outcome) => Pending::Done(outcome),
        Err(payload) => Pending::Panicked(payload),
    };
}

/// Execute the deferred interactive op at the core's pc against the real
/// devices: one instruction, behind the same budget check a segment makes
/// before every op. Afterwards the core is halted, parked, or
/// [`RunStop::Bound`]: the op's cycles are spent, and the caller judges
/// whether the quantum goes on.
fn commit_op<T: Timing>(
    slot: &mut CoreSlot,
    dev: &mut SharedDevices,
    env: RunEnv,
) -> Result<RunStop, TrapCause> {
    let CoreSlot {
        core,
        code,
        code_stores,
        ..
    } = slot;
    if core.time > env.max_cycles {
        return Ok(RunStop::Budget);
    }
    let mut ctx = ShardCtx {
        ram: env.ram,
        code,
        code_stores,
        dev: RealDev(dev),
        csr_writeback: env.csr_writeback,
        superblocks: env.superblocks,
        kernels: env.kernels,
    };
    let out = core.exec_one::<T, _>(&mut ctx);
    core.sync_counters();
    out?;
    Ok(if core.halted() {
        RunStop::Halted
    } else if core.parked() {
        RunStop::Parked
    } else {
        RunStop::Bound
    })
}

/// Make core `i`'s code changes reach every other shard before any later
/// wave runs: widen their windows to its shard's, then replay its logged
/// stores into their decoded slots, superblocks and kernel spans. The
/// widening keeps the shards equally wide at every commit, so a core
/// logs a store wherever another core may have decoded code. A guest
/// that never stores into code and never grows its window returns at the
/// first check.
fn publish_code(slots: &[Mutex<CoreSlot>], i: usize, s: &mut CoreSlot) {
    let window = s.code.window();
    if s.code_stores.is_empty() && window == s.window {
        return;
    }
    for (j, other) in slots.iter().enumerate() {
        if j != i {
            let mut o = lock(other);
            o.code.widen_to(&s.code);
            for &addr in &s.code_stores {
                o.code.invalidate_store(addr);
            }
        }
    }
    s.code_stores.clear();
    s.window = window;
}

/// The one shared queue a wave's segments are claimed from: the
/// coordinator publishes a wave, then it and the helpers claim segments
/// in ascending hart order until none is left.
struct WaveQueue {
    state: Mutex<WaveState>,
    /// Helpers park here between waves.
    start: Condvar,
    /// The coordinator parks here until the wave's last segment finishes.
    done: Condvar,
}

struct WaveState {
    /// Slots posted in the current wave, ascending.
    jobs: Vec<usize>,
    /// Next unclaimed entry of `jobs`.
    next: usize,
    /// Entries of `jobs` whose segment has finished.
    finished: usize,
    shutdown: bool,
}

impl WaveQueue {
    fn new(n: usize) -> Self {
        WaveQueue {
            state: Mutex::new(WaveState {
                jobs: Vec::with_capacity(n),
                next: 0,
                finished: 0,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// Claim and run segments of the current wave until none is left
    /// unclaimed; hands the re-acquired lock back.
    fn drain<'q, T: Timing>(
        &'q self,
        mut st: MutexGuard<'q, WaveState>,
        slots: &[Mutex<CoreSlot>],
        env: RunEnv,
    ) -> MutexGuard<'q, WaveState> {
        while let Some(&i) = st.jobs.get(st.next) {
            st.next += 1;
            drop(st);
            run_segment::<T>(&slots[i], env);
            st = lock(&self.state);
            st.finished += 1;
            if st.finished == st.jobs.len() {
                self.done.notify_one();
            }
        }
        st
    }

    /// Coordinator: run one wave to completion, claiming segments
    /// alongside the helpers. A one-segment wave runs right here without
    /// waking any, so guests dense in interactive ops pay no rendezvous.
    fn run<T: Timing>(&self, jobs: &[usize], slots: &[Mutex<CoreSlot>], env: RunEnv) {
        if let [i] = *jobs {
            run_segment::<T>(&slots[i], env);
            return;
        }
        let mut st = lock(&self.state);
        st.jobs.clear();
        st.jobs.extend_from_slice(jobs);
        st.next = 0;
        st.finished = 0;
        self.start.notify_all();
        st = self.drain::<T>(st, slots, env);
        while st.finished < st.jobs.len() {
            st = self
                .done
                .wait(st)
                .expect("the queue lock is never poisoned");
        }
    }

    /// Helper: claim segments of every wave until shutdown.
    fn serve<T: Timing>(&self, slots: &[Mutex<CoreSlot>], env: RunEnv) {
        let mut st = lock(&self.state);
        while !st.shutdown {
            st = self.drain::<T>(st, slots, env);
            st = self
                .start
                .wait(st)
                .expect("the queue lock is never poisoned");
        }
    }

    fn shutdown(&self) {
        lock(&self.state).shutdown = true;
        self.start.notify_all();
    }
}

/// The coordinator loop: post a round's first wave, then commit in
/// ascending hart order, posting a further wave whenever a deferred op
/// lets cores go on. Reproduces [`System::run_relaxed_stepped`] decision
/// for decision — the property suites assert bit-identity.
fn coordinate<T: Timing>(
    dev: &mut SharedDevices,
    slots: &[Mutex<CoreSlot>],
    queue: &WaveQueue,
    env: RunEnv,
    wd: &mut Watchdog,
    stats: &mut ParallelStats,
) -> Result<(), RoundError> {
    let n = slots.len();
    let trap = |core: usize| {
        move |cause| SimError::Trap {
            core: core as u32,
            cause,
        }
    };
    let timeout = || SimError::Timeout {
        max_cycles: env.max_cycles,
    };
    // Generation at which each parked core arrived (same bookkeeping as
    // the stepped reference).
    let mut parked_gen: Vec<Option<u32>> = vec![None; n];
    let mut wave: Vec<usize> = Vec::with_capacity(n);
    loop {
        // One wall-clock check per round: a round is at most n × quantum
        // relaxed cycles, so the cadence is bounded. A segment stalled
        // mid-wave (e.g. an injected stall fault) delays the check until
        // the wave completes — enforcement stays cooperative.
        wd.check()?;
        let generation = dev.barrier_generation();
        let mut all_halted = true;
        wave.clear();
        for (i, slot) in slots.iter().enumerate() {
            let mut s = lock(slot);
            all_halted &= s.core.halted();
            if s.post_quantum(&mut parked_gen[i], generation, env.quantum) {
                wave.push(i);
            }
        }
        if all_halted {
            return Ok(());
        }
        stats.rounds += 1;
        if !wave.is_empty() {
            stats.waves += 1;
            queue.run::<T>(&wave, slots, env);
        }
        // Commit pass, ascending hart order. A core's turn ends when a
        // segment stops without a deferred op, or its deferred op ends
        // the quantum.
        let mut any_ran = false;
        for (i, slot) in slots.iter().enumerate() {
            loop {
                let mut s = lock(slot);
                let outcome = match std::mem::replace(&mut s.pending, Pending::Idle) {
                    Pending::Idle => break,
                    Pending::Job => unreachable!("a wave completes before it is committed"),
                    Pending::Done(outcome) => outcome,
                    // Abandon the run; the caller re-raises the panic on
                    // its own thread once the helpers have joined.
                    Pending::Panicked(payload) => return Err(RoundError::Panic(payload)),
                };
                // The segment answered generation reads with the posted
                // generation; no round can complete before this core
                // arrives, so the device must still agree.
                assert_eq!(
                    dev.barrier_generation(),
                    s.generation,
                    "core {i}: barrier generation moved before the core arrived"
                );
                any_ran = true;
                stats.wave_instret += s.retired;
                s.buf.flush_into(dev);
                publish_code(slots, i, &mut s);
                match outcome.map_err(trap(i))? {
                    RunStop::Halted | RunStop::Bound => break,
                    RunStop::Budget => return Err(timeout().into()),
                    RunStop::Parked => unreachable!("segments never park"),
                    RunStop::SharedOp => {}
                }
                let before = s.core.counters.instret;
                let stop = commit_op::<T>(&mut s, dev, env);
                stats.commit_instret += s.core.counters.instret - before;
                // The op's own fetch may have grown the shard's window.
                publish_code(slots, i, &mut s);
                let goes_on = match stop.map_err(trap(i))? {
                    RunStop::Halted => false,
                    RunStop::Bound => s.core.time <= s.bound,
                    RunStop::Budget => return Err(timeout().into()),
                    RunStop::Parked => {
                        parked_gen[i] = Some(dev.barrier_generation());
                        false
                    }
                    RunStop::SharedOp => unreachable!("the commit pass never defers"),
                };
                // Post what the op made certain to run this round: the
                // rest of this core's quantum, and every later core
                // parked at a generation the op just completed.
                let generation = dev.barrier_generation();
                wave.clear();
                if goes_on {
                    let bound = s.bound;
                    s.post(bound, generation);
                    wave.push(i);
                }
                drop(s);
                for (j, later) in slots.iter().enumerate().skip(i + 1) {
                    if parked_gen[j].is_some()
                        && lock(later).post_quantum(&mut parked_gen[j], generation, env.quantum)
                    {
                        wave.push(j);
                    }
                }
                if !wave.is_empty() {
                    stats.waves += 1;
                    queue.run::<T>(&wave, slots, env);
                }
                if !goes_on {
                    break;
                }
            }
        }
        if !any_ran {
            // Every live core is parked at a barrier round that can no
            // longer complete — same timeout the stepped reference
            // surfaces.
            return Err(timeout().into());
        }
    }
}

impl System {
    /// The relaxed scheduler on `host_threads` host threads, `0` for auto
    /// (see the module docs for the design and the equivalence argument).
    pub(crate) fn run_relaxed_parallel<T: Timing>(
        &mut self,
        quantum: u64,
        host_threads: u32,
        max_cycles: u64,
        wd: &mut Watchdog,
    ) -> Result<(), SimError> {
        let quantum = quantum.max(1);
        let n = self.cores.len();
        let threads = (resolve_host_threads(host_threads) as usize).clamp(1, n);
        let env = RunEnv {
            ram: RamView::new(&mut self.shared.mem),
            n_cores: n as u32,
            csr_writeback: self.shared.csr_writeback,
            superblocks: self.shared.superblocks,
            kernels: self.shared.kernels,
            quantum,
            max_cycles,
        };
        let slots: Vec<Mutex<CoreSlot>> = std::mem::take(&mut self.cores)
            .into_iter()
            .map(|core| {
                Mutex::new(CoreSlot {
                    core,
                    code: self.shared.code.clone(),
                    code_stores: Vec::new(),
                    window: self.shared.code.window(),
                    buf: DeviceBuffer::default(),
                    bound: 0,
                    generation: 0,
                    retired: 0,
                    pending: Pending::Idle,
                })
            })
            .collect();
        let queue = WaveQueue::new(n);
        let dev = &mut self.shared.dev;
        let mut stats = ParallelStats::default();
        let result = std::thread::scope(|scope| {
            // The coordinator drains the queue too, so it brings the
            // thread count to `threads`.
            for _ in 1..threads {
                let (slots, queue) = (&slots, &queue);
                scope.spawn(move || queue.serve::<T>(slots, env));
            }
            // Deferred ops run guest code on *this* thread, so a panic —
            // host bug or injected fault — can fire here as well as in a
            // segment. Catch it before it can unwind out of the scope
            // closure: `thread::scope` would otherwise join the helpers
            // before propagating, and they are parked on the queue
            // condvar waiting for a shutdown that never comes.
            let out = catch_unwind(AssertUnwindSafe(|| {
                coordinate::<T>(dev, &slots, &queue, env, wd, &mut stats)
            }))
            .unwrap_or_else(|payload| Err(RoundError::Panic(payload)));
            queue.shutdown();
            out
        });
        self.par_stats = stats;
        // Guest stores during the run invalidated the per-core shards,
        // not the system's predecode table; drop the latter so any later
        // run of this system re-decodes lazily instead of trusting a
        // possibly stale cache. Registered kernel spans survive the reset
        // — they are registrations, not cached decodes. A span that any
        // shard rejected stays rejected; the others come back dirty, so
        // the next dispatch re-verifies their fingerprints against
        // whatever the guest left in RAM.
        let mut spans = self.shared.code.take_kernel_spans();
        self.cores = slots
            .into_iter()
            .map(|s| {
                let s = s.into_inner().unwrap_or_else(PoisonError::into_inner);
                for (span, shard) in spans.iter_mut().zip(s.code.kernel_spans()) {
                    if shard.state == SpanState::Rejected {
                        span.state = SpanState::Rejected;
                    }
                }
                s.core
            })
            .collect();
        self.shared.code = CodeTable::new(self.cfg.sdram_size, self.cfg.scratch_size);
        self.shared.code.adopt_kernel_spans(spans);
        match result {
            Ok(()) => Ok(()),
            Err(RoundError::Sim(e)) => Err(e),
            // Re-raise the segment's panic here, on the calling thread,
            // now that the scope has joined the helpers — a supervisor's
            // `catch_unwind` around `run()` sees exactly the panic the
            // stepped reference would have raised, never a deadlock.
            Err(RoundError::Panic(payload)) => resume_unwind(payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{SchedMode, SystemConfig, TimingModel};
    use izhi_isa::asm::Assembler;
    use izhi_isa::reg::Reg;

    fn build(src: &str, n_cores: u32, sched: SchedMode) -> System {
        let prog = Assembler::new().assemble(src).expect("asm");
        let mut sys = System::new(SystemConfig {
            n_cores,
            sched,
            ..Default::default()
        });
        assert!(sys.load_program(&prog));
        sys
    }

    fn run_mode(src: &str, n_cores: u32, sched: SchedMode, max_cycles: u64) -> System {
        let mut sys = build(src, n_cores, sched);
        sys.run(max_cycles).expect("run");
        sys
    }

    /// Full observable-state comparison: registers, clocks, counters,
    /// scratch memory, and every device log in exact order.
    fn assert_identical(a: &System, b: &System, what: &str) {
        for core in 0..a.n_cores() {
            for r in 0..32u8 {
                assert_eq!(
                    a.core(core).reg(Reg(r)),
                    b.core(core).reg(Reg(r)),
                    "{what}: core {core} x{r}"
                );
            }
            assert_eq!(
                a.core(core).time,
                b.core(core).time,
                "{what}: core {core} time"
            );
            assert_eq!(
                a.core(core).counters.instret,
                b.core(core).counters.instret,
                "{what}: core {core} instret"
            );
            assert_eq!(
                a.core(core).pc(),
                b.core(core).pc(),
                "{what}: core {core} pc"
            );
        }
        for word in 0..1024u32 {
            let addr = layout::SCRATCH_BASE + 4 * word;
            assert_eq!(
                a.shared().mem.read_u32(addr),
                b.shared().mem.read_u32(addr),
                "{what}: scratch {addr:#x}"
            );
        }
        assert_eq!(
            a.shared().dev.console,
            b.shared().dev.console,
            "{what}: console"
        );
        assert_eq!(
            a.shared().dev.spike_log,
            b.shared().dev.spike_log,
            "{what}: spike log order"
        );
        assert_eq!(
            a.shared().dev.progress,
            b.shared().dev.progress,
            "{what}: progress"
        );
        assert_eq!(
            a.shared().dev.mutex_contention,
            b.shared().dev.mutex_contention,
            "{what}: mutex contention"
        );
        assert_eq!(
            a.shared().dev.barrier_generation(),
            b.shared().dev.barrier_generation(),
            "{what}: barrier generation"
        );
    }

    /// The relaxed scheduler's spellings at one quantum and clock:
    /// `Relaxed`, and `RelaxedParallel` at 1, 2 and 4 host threads.
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

    /// Run `src` under `Relaxed {quantum}` and under `RelaxedParallel` at
    /// 1, 2 and 4 host threads, asserting observable state bit-identical
    /// to the stepped reference's.
    fn assert_parallel_matches_relaxed(src: &str, n_cores: u32, quantum: u64) {
        let timing = TimingModel::Unit;
        let mut reference = build(src, n_cores, SchedMode::Exact);
        reference
            .run_relaxed_stepped(quantum, timing, 50_000_000)
            .expect("run");
        for sched in relaxed_modes(quantum, timing) {
            let sys = run_mode(src, n_cores, sched, 50_000_000);
            assert_identical(&reference, &sys, &format!("{sched:?} cores={n_cores}"));
        }
    }

    /// Barrier-synchronised publish/consume plus spike-log exports on both
    /// sides of the rendezvous.
    const BARRIER_SPIKES_SRC: &str = "
        _start: li   t0, 0xF0000004
                lw   t1, (t0)          # core id
                li   t2, 0x10000000
                li   s2, 0xF000001C    # spike log
                slli t3, t1, 8
                ori  t3, t3, 1
                sw   t3, (s2)          # pre-barrier export
                bnez t1, wait
                li   t3, 7777
                sw   t3, (t2)          # core 0 publishes
        wait:   li   t4, 0xF0000010    # barrier reg
                lw   t5, (t4)          # generation
                sw   x0, (t4)          # arrive
        spin:   lw   t6, (t4)
                beq  t6, t5, spin
                lw   a0, (t2)          # both read after release
                slli t3, t1, 8
                ori  t3, t3, 2
                sw   t3, (s2)          # post-barrier export
                ebreak
    ";

    #[test]
    fn parallel_matches_relaxed_on_barrier_program() {
        for quantum in [1u64, 7, 64, SchedMode::DEFAULT_QUANTUM] {
            assert_parallel_matches_relaxed(BARRIER_SPIKES_SRC, 2, quantum);
        }
        let par = run_mode(
            BARRIER_SPIKES_SRC,
            2,
            SchedMode::RelaxedParallel {
                quantum: 7,
                host_threads: 2,
                timing: TimingModel::Unit,
            },
            1_000_000,
        );
        assert_eq!(par.core(0).reg(Reg::A0), 7777);
        assert_eq!(par.core(1).reg(Reg::A0), 7777);
    }

    #[test]
    fn parallel_mutex_increments_match_relaxed() {
        let src = "
            .equ MUTEX, 0xF000000C
            .equ COUNTER, 0x10000000
            _start: li   s0, 300
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
        for quantum in [3u64, 64] {
            assert_parallel_matches_relaxed(src, 2, quantum);
        }
        let par = run_mode(
            src,
            2,
            SchedMode::RelaxedParallel {
                quantum: 64,
                host_threads: 4,
                timing: TimingModel::Unit,
            },
            50_000_000,
        );
        assert_eq!(par.shared().mem.read_u32(layout::SCRATCH_BASE), Some(600));
    }

    #[test]
    fn parallel_rng_stream_matches_relaxed() {
        // Both cores drain the shared xorshift32 stream into their own
        // scratch page: the draws are interactive and must interleave in
        // exactly the order the stepped reference produces.
        let src = "
            _start: li   t0, 0xF0000004
                    lw   t1, (t0)          # core id
                    li   t2, 0x10000000
                    slli t3, t1, 12
                    add  t2, t2, t3        # own page
                    li   t4, 0xF0000020    # RNG
                    li   s0, 20
            draw:   lw   t5, (t4)
                    sw   t5, (t2)
                    addi t2, t2, 4
                    addi s0, s0, -1
                    bnez s0, draw
                    ebreak
        ";
        for quantum in [1u64, 7, 1000] {
            assert_parallel_matches_relaxed(src, 2, quantum);
        }
    }

    #[test]
    fn parallel_three_cores_matches_relaxed() {
        assert_parallel_matches_relaxed(BARRIER_SPIKES_SRC, 3, 7);
    }

    /// Three cores append tagged words to the spike log between loops the
    /// batch tiers take whole: two-op and eight-op loop blocks
    /// (superblocks), a dense accumulate loop (the native kernel tier) and
    /// a counted ALU loop (the generic kernel tier). A quantum bound is
    /// relative to where the core's previous quantum ended, so a batch
    /// that runs one op past its bound moves every later bound of that
    /// core, and the merged log — each round's words in hart order —
    /// records it. The odd core takes the eight-op path, one op shorter
    /// than the even cores' two-op path, so its words lead theirs by one
    /// op: a tier that runs an op past a bound on one path and not on the
    /// other reorders them. The even path ends in two ALU ops before a
    /// CSR read (which ends a superblock before it): a block whose
    /// conservative cost estimate is its real cost, so a block admitted
    /// past its bound retires an op single steps would not.
    const QUANTUM_EDGES_SRC: &str = "
        _start: li   t0, 0xF0000004
                lw   s11, (t0)         # core id
                li   s4, 0xF000001C    # spike log
                slli s10, s11, 11
                li   t0, 0x10001000
                add  s10, s10, t0      # own page: weights, accumulators at +0x400
                slli s9, s11, 24       # log tag
                li   s1, 6             # passes
        outer:  andi t0, s11, 1
                bnez t0, coarse
                li   t2, 16
        fine:   addi t2, t2, -1
                bnez t2, fine
                addi a0, a0, 1
                addi a1, a1, 1
                csrr t0, mhartid
                j    joined
        coarse: li   t2, 4
        wide:   addi a0, a0, 1
                xor  a1, a1, a0
                slli a4, a0, 2
                add  a1, a1, a4
                addi a0, a0, 5
                sub  a1, a1, s1
                addi t2, t2, -1
                bnez t2, wide
                addi a0, a0, 1
                addi a1, a1, 1
                j    joined
        joined: add  t3, s9, s1
                sw   t3, (s4)
                add  a2, s10, x0
                addi t1, s10, 0x400
                li   t3, 6
        dense:  lh   t4, (a2)
                lw   t5, (t1)
                slli t4, t4, 8
                add  t5, t5, t4
                sw   t5, (t1)
                addi a2, a2, 2
                addi t1, t1, 4
                addi t3, t3, -1
                bnez t3, dense
                ori  t3, s9, 0x100
                add  t3, t3, s1
                sw   t3, (s4)
                li   t2, 8
        gen:    addi a0, a0, 1
                xor  a1, a1, a0
                addi t2, t2, -1
                bnez t2, gen
                ori  t3, s9, 0x200
                add  t3, t3, s1
                sw   t3, (s4)
                addi s1, s1, -1
                bnez s1, outer
                ebreak
    ";

    #[test]
    fn batches_end_where_single_steps_end_their_quantum() {
        let prog = Assembler::new().assemble(QUANTUM_EDGES_SRC).expect("asm");
        let build = |sched| {
            let mut sys = System::new(SystemConfig {
                n_cores: 3,
                sched,
                ..Default::default()
            });
            assert!(sys.load_program(&prog));
            for word in 0..1024u32 {
                let addr = layout::SCRATCH_BASE + 0x1000 + 4 * word;
                sys.shared_mut()
                    .mem
                    .write_u32(addr, word.wrapping_mul(0x9E37_79B9));
            }
            let shared = sys.shared_mut();
            for label in ["dense", "gen"] {
                let entry = prog.symbol(label).expect("span label");
                crate::kernel::register_kernel_span(&mut shared.code, &shared.mem, entry)
                    .expect("span registers");
            }
            sys
        };
        let shapes: Vec<_> = build(SchedMode::Exact)
            .shared()
            .code
            .kernel_spans()
            .iter()
            .map(|s| s.native.is_some())
            .collect();
        assert_eq!(shapes, [true, false], "dense is native, gen is generic");
        let mut native = 0;
        for timing in [TimingModel::Unit, TimingModel::Estimated] {
            for quantum in [1u64, 7, 13, 64] {
                let mut stepped = build(SchedMode::Exact);
                stepped
                    .run_relaxed_stepped(quantum, timing, 1_000_000)
                    .expect("stepped run");
                assert_eq!(stepped.shared().dev.spike_log.len(), 3 * 3 * 6);
                for sched in relaxed_modes(quantum, timing) {
                    let mut sys = build(sched);
                    sys.run(1_000_000).expect("relaxed run");
                    assert_identical(&stepped, &sys, &format!("{sched:?}"));
                    let cores = (0..3).map(|i| sys.core(i));
                    native += cores.map(|c| c.native_instret).sum::<u64>();
                }
            }
        }
        assert!(native > 0, "no native batch ran");
    }

    /// Run the two-core program `src` on every scheduler — exact, the
    /// stepped relaxed reference, `Relaxed` and `RelaxedParallel` at 1, 2
    /// and 4 host threads, at quanta 1, 7 and the default on both clocks —
    /// and require the console `expected` from each. With `span`, the
    /// loop at that label is registered as a kernel span first; it must
    /// batch core 1's work at the default quantum, and every relaxed run
    /// must leave it rejected.
    fn assert_console_everywhere(src: &str, expected: &str, span: Option<&str>) {
        let prog = Assembler::new().assemble(src).expect("asm");
        let build = |sched| {
            let mut sys = System::new(SystemConfig {
                n_cores: 2,
                sched,
                ..Default::default()
            });
            assert!(sys.load_program(&prog));
            if let Some(label) = span {
                let entry = prog.symbol(label).expect("span label");
                let shared = sys.shared_mut();
                crate::kernel::register_kernel_span(&mut shared.code, &shared.mem, entry)
                    .expect("span registers");
            }
            sys
        };
        let mut exact = build(SchedMode::Exact);
        exact.run(1_000_000).expect("exact run");
        assert_eq!(exact.console(), expected, "exact");
        for timing in [TimingModel::Unit, TimingModel::Estimated] {
            for quantum in [1u64, 7, SchedMode::DEFAULT_QUANTUM] {
                let mut stepped = build(SchedMode::Exact);
                stepped
                    .run_relaxed_stepped(quantum, timing, 1_000_000)
                    .expect("stepped run");
                assert_eq!(
                    stepped.console(),
                    expected,
                    "stepped {timing:?} q={quantum}"
                );
                for sched in relaxed_modes(quantum, timing) {
                    let mut sys = build(sched);
                    sys.run(1_000_000).expect("relaxed run");
                    assert_eq!(sys.console(), expected, "{sched:?}");
                    if span.is_some() {
                        let spans = sys.shared().code.kernel_spans();
                        assert_eq!(spans[0].state, SpanState::Rejected, "{sched:?}");
                        if quantum == SchedMode::DEFAULT_QUANTUM {
                            assert!(sys.core(1).kernel_instret > 0, "{sched:?}: no batch");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn code_patched_across_a_barrier_runs_patched_on_every_scheduler() {
        // Core 0 stores `addi a0, x0, 2` over core 1's `target`; after
        // the barrier core 1 runs it and prints a0.
        let src = "
            _start: li   t0, 0xF0000004
                    lw   t1, (t0)          # core id
                    bnez t1, wait
                    la   t2, target
                    li   t3, 0x00200513    # addi a0, x0, 2
                    sw   t3, (t2)
            wait:   li   t4, 0xF0000010
                    lw   t5, (t4)
                    sw   x0, (t4)          # arrive
            spin:   lw   t6, (t4)
                    beq  t6, t5, spin
                    beqz t1, done
            target: addi a0, x0, 1
                    li   a7, 1
                    ecall                  # print a0
            done:   ebreak
        ";
        assert_console_everywhere(src, "2", None);
    }

    #[test]
    fn repeat_code_patches_reach_the_other_cores() {
        // Two barrier-ordered passes: core 0 patches `target` (2, then 3)
        // and core 1 runs it after each patch. Core 0 never runs
        // `target`, so its second store lands on a slot its own table
        // already holds stale.
        let src = "
            _start: li   t0, 0xF0000004
                    lw   s1, (t0)          # core id
                    li   s8, 0xF0000010    # barrier
                    la   s2, target
                    li   s3, 0x00200513    # addi a0, x0, 2
                    li   s4, 0x00300513    # addi a0, x0, 3
                    li   a7, 1
                    li   s5, 2             # passes
            pass:   bnez s1, arrive
                    sw   s3, (s2)
                    mv   s3, s4
            arrive: lw   t5, (s8)
                    sw   x0, (s8)
            spin:   lw   t6, (s8)
                    beq  t6, t5, spin
                    beqz s1, sync
            target: addi a0, x0, 1
                    ecall                  # print a0
            sync:   lw   t5, (s8)          # core 0 patches after core 1 ran
                    sw   x0, (s8)
            spin2:  lw   t6, (s8)
                    beq  t6, t5, spin2
                    addi s5, s5, -1
                    bnez s5, pass
                    ebreak
        ";
        assert_console_everywhere(src, "23", None);
    }

    #[test]
    fn scratch_code_patches_reach_a_core_that_ran_it() {
        // Core 0 writes a two-word routine into the scratchpad (2, then 3)
        // and core 1 calls it after each write. Only core 1 ever fetches
        // from the scratchpad, so core 0 logs its second write only
        // because the commit pass widened its table to core 1's windows.
        let src = "
            .equ OVL, 0x10008000
            _start: li   t0, 0xF0000004
                    lw   s1, (t0)          # core id
                    li   s8, 0xF0000010    # barrier
                    li   s2, OVL
                    li   s3, 0x00200513    # addi a0, x0, 2
                    li   s4, 0x00300513    # addi a0, x0, 3
                    li   s6, 0x00008067    # ret
                    li   a7, 1
                    li   s5, 2             # passes
            pass:   bnez s1, arrive
                    sw   s3, 0(s2)
                    sw   s6, 4(s2)
                    mv   s3, s4
            arrive: lw   t5, (s8)
                    sw   x0, (s8)
            spin:   lw   t6, (s8)
                    beq  t6, t5, spin
                    beqz s1, sync
                    jalr s2                # call the routine
                    ecall                  # print a0
            sync:   lw   t5, (s8)
                    sw   x0, (s8)
            spin2:  lw   t6, (s8)
                    beq  t6, t5, spin2
                    addi s5, s5, -1
                    bnez s5, pass
                    ebreak
        ";
        assert_console_everywhere(src, "23", None);
    }

    #[test]
    fn kernel_span_patches_reach_a_core_that_ran_it() {
        // Core 1 runs the registered loop `kloop` twice; between the
        // passes core 0 patches its increment from 1 to 2. The span core 1
        // verified in pass 1 must see the store, re-verify and reject.
        let src = "
            _start: li   t0, 0xF0000004
                    lw   s1, (t0)          # core id
                    li   s8, 0xF0000010    # barrier
                    la   s2, kloop
                    li   s3, 0x00250513    # addi a0, a0, 2
                    li   a7, 1
                    li   s5, 0             # pass index
            pass:   bnez s1, arrive
                    beqz s5, arrive        # patch before the second pass
                    sw   s3, (s2)
            arrive: lw   t5, (s8)
                    sw   x0, (s8)
            spin:   lw   t6, (s8)
                    beq  t6, t5, spin
                    beqz s1, sync
                    li   a0, 0
                    li   t1, 10
            kloop:  addi a0, a0, 1
                    addi t1, t1, -1
                    bnez t1, kloop
                    ecall                  # print a0
            sync:   lw   t5, (s8)
                    sw   x0, (s8)
            spin2:  lw   t6, (s8)
                    beq  t6, t5, spin2
                    addi s5, s5, 1
                    li   t0, 2
                    bne  s5, t0, pass
                    ebreak
        ";
        assert_console_everywhere(src, "1020", Some("kloop"));
    }

    #[test]
    fn parallel_trap_reports_the_faulting_core() {
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
        let mut sys = System::new(SystemConfig {
            n_cores: 2,
            sched: SchedMode::RelaxedParallel {
                quantum: 32,
                host_threads: 2,
                timing: TimingModel::Unit,
            },
            ..Default::default()
        });
        sys.load_program(&prog);
        match sys.run(10_000_000) {
            Err(SimError::Trap { core: 1, cause }) => {
                assert!(matches!(cause, TrapCause::BadAccess { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parallel_unreleasable_barrier_times_out() {
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
        let mut sys = System::new(SystemConfig {
            n_cores: 2,
            sched: SchedMode::RelaxedParallel {
                quantum: 16,
                host_threads: 2,
                timing: TimingModel::Unit,
            },
            ..Default::default()
        });
        sys.load_program(&prog);
        assert!(matches!(sys.run(100_000), Err(SimError::Timeout { .. })));
    }

    #[test]
    fn parallel_worker_panic_unwinds_to_the_caller_instead_of_deadlocking() {
        // An injected host panic fires inside a segment, on a helper or
        // the coordinator. The wave must still complete (the
        // coordinator may be parked waiting on it) and the panic must
        // re-raise on the calling thread, where a supervisor's
        // `catch_unwind` can classify it. A regression here hangs the
        // test rather than failing it, so keep the run small.
        use crate::mmio::{FaultKind, FaultPlan};
        let prog = Assembler::new().assemble(BARRIER_SPIKES_SRC).expect("asm");
        let mut sys = System::new(SystemConfig {
            n_cores: 2,
            sched: SchedMode::RelaxedParallel {
                quantum: 16,
                host_threads: 2,
                timing: TimingModel::Unit,
            },
            faults: FaultPlan::none().with(1, 5, FaultKind::HostPanic),
            ..Default::default()
        });
        assert!(sys.load_program(&prog));
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| sys.run(1_000_000)));
        let payload = run.expect_err("the injected panic surfaces as a panic");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(msg.contains("injected host panic"), "{msg}");
    }

    #[test]
    fn coordinator_panic_during_commit_shuts_the_pool_down_instead_of_deadlocking() {
        // Mutex traffic is interactive, so this guest commits an op
        // every few instructions and runs the rest in one-segment waves
        // on the *coordinator* thread. A panic there must still release
        // the parked helpers — it unwinds through the scope closure
        // otherwise, and the scope joins helpers that wait for a wave
        // that never comes.
        use crate::mmio::{FaultKind, FaultPlan};
        let src = "
            .equ MUTEX, 0xF000000C
            _start: li   s0, 2000
                    li   s1, MUTEX
            loop:   lw   t0, (s1)
                    beqz t0, loop
                    sw   x0, (s1)
                    addi s0, s0, -1
                    bnez s0, loop
                    ebreak
        ";
        let prog = Assembler::new().assemble(src).expect("asm");
        let mut sys = System::new(SystemConfig {
            n_cores: 2,
            sched: SchedMode::RelaxedParallel {
                quantum: 64,
                host_threads: 2,
                timing: TimingModel::Unit,
            },
            faults: FaultPlan::none().with(0, 1_000, FaultKind::HostPanic),
            ..Default::default()
        });
        assert!(sys.load_program(&prog));
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| sys.run(10_000_000)));
        assert!(run.is_err(), "the injected panic surfaces as a panic");
    }

    #[test]
    fn panic_in_a_deferred_op_shuts_the_helpers_down_instead_of_deadlocking() {
        // Core 0's fault is armed at its third instruction, an RNG draw.
        // The draw is interactive, so the segment stops before it and
        // the fault fires while the coordinator executes the op alone,
        // outside any segment's `catch_unwind`.
        use crate::mmio::{FaultKind, FaultPlan};
        let src = "
            _start: li   s1, 0xF0000020    # RNG (lui + addi)
                    lw   t0, (s1)          # instret 2: the deferred draw
                    ebreak
        ";
        let prog = Assembler::new().assemble(src).expect("asm");
        let mut sys = System::new(SystemConfig {
            n_cores: 2,
            sched: SchedMode::RelaxedParallel {
                quantum: 64,
                host_threads: 2,
                timing: TimingModel::Unit,
            },
            faults: FaultPlan::none().with(0, 2, FaultKind::HostPanic),
            ..Default::default()
        });
        assert!(sys.load_program(&prog));
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| sys.run(1_000_000)));
        let payload = run.expect_err("the injected panic surfaces as a panic");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(msg.contains("injected host panic on core 0"), "{msg}");
    }

    #[test]
    fn parallel_runs_are_deterministic() {
        let run = || {
            let sys = run_mode(
                BARRIER_SPIKES_SRC,
                3,
                SchedMode::RelaxedParallel {
                    quantum: 5,
                    host_threads: 4,
                    timing: TimingModel::Unit,
                },
                1_000_000,
            );
            (
                (0..3).map(|i| sys.core(i).time).collect::<Vec<_>>(),
                sys.shared().dev.spike_log.clone(),
            )
        };
        let first = run();
        for _ in 0..7 {
            assert_eq!(first, run());
        }
    }
}
