//! # izhi-sim — cycle-approximate IzhiRISC-V system simulator
//!
//! A timing-annotated instruction-set simulator of the paper's FPGA system:
//! one or more 3-stage IzhiRISC-V cores (RV32IM + Zicsr + the neuromorphic
//! custom-0 extension) with private I/D caches, connected through a shared
//! round-robin bus to an SDRAM model, plus a single-cycle on-chip scratchpad
//! and an MMIO block (console, hardware mutex, barrier, spike log, RNG,
//! region-of-interest counter control).
//!
//! ## Timing model
//!
//! The DTEK-V base core merges Fetch+Decode and Memory+Writeback into a
//! 3-stage pipeline with a forwarding unit (paper §V-A). We model time per
//! retired instruction:
//!
//! * 1 base cycle (the pipeline is fully bypassed for ALU→ALU dependences);
//! * +1 *hazard stall* when the previous instruction was a load or a
//!   neuromorphic instruction and the current one reads its destination —
//!   the "source register of the fetched instruction equals the
//!   destination register of the current instruction" condition of §VI-B
//!   (the nm-writeback stall is what the paper's proposed *CSR writeback*
//!   would remove; [`SystemConfig::csr_writeback`] models that fix);
//! * +1 flush cycle for every taken branch or jump (resolved in EX);
//! * miss penalties from the I/D cache models (bus arbitration and SDRAM
//!   burst latency);
//! * a multi-cycle latency for `div`/`rem` (iterative divider).
//!
//! Multi-core execution is event-driven by default ([`SchedMode::Exact`]):
//! the system always steps the core with the smallest local clock, and bus
//! transactions reserve global bus time, so contention between cores
//! emerges naturally. [`System::run_stepped`] is that schedule by
//! definition, one instruction per pick; [`System::run`] batches it
//! without changing a single pick. Two cores run a fused inner loop that
//! re-picks per instruction without scheduler overhead, and each arm of
//! its pick steps a fixed core through its own inlined copy of the
//! interpreter, so the binary holds one dispatch per core and each
//! copy's branches see one core's instruction stream. One copy shared
//! behind a picked core ran the paper's two-core exact 80-20 network
//! about 1.3× slower; both copies must stay inlined for the win to
//! hold. An opt-in relaxed scheduler ([`parallel`]) trades all of that
//! timing fidelity for throughput: round-robin quanta, a blocking barrier
//! device, and a pluggable relaxed clock ([`TimingModel`]) — one cycle
//! per retired instruction (`Unit`, the determinism baseline) or static
//! per-op-class costs (`Estimated`, [`counters::CostTable`]) so relaxed
//! rows carry a defensible simulated-time figure — with architectural
//! results unchanged for guests that synchronise through the
//! barrier/mutex devices. It runs the quanta in waves on host threads
//! against a sharded memory view: [`SchedMode::Relaxed`] on one thread,
//! [`SchedMode::RelaxedParallel`] on several, and every host-thread count
//! is bit-identical to [`System::run_relaxed_stepped`], the relaxed
//! schedule by definition, one instruction per step.
//!
//! ## Example
//!
//! ```
//! use izhi_isa::Assembler;
//! use izhi_sim::{System, SystemConfig};
//!
//! let prog = Assembler::new()
//!     .assemble(
//!         r#"
//!         _start: li   t0, 0
//!                 li   t1, 100
//!         loop:   addi t0, t0, 1
//!                 bne  t0, t1, loop
//!                 ebreak
//!         "#,
//!     )
//!     .unwrap();
//! let mut sys = System::new(SystemConfig::default());
//! sys.load_program(&prog);
//! sys.run(1_000_000).unwrap();
//! assert_eq!(sys.core(0).reg(izhi_isa::Reg::T0), 100);
//! ```

pub mod bus;
pub mod cache;
pub mod counters;
pub mod cpu;
pub mod kernel;
pub mod mem;
pub mod mmio;
pub mod parallel;
pub mod predecode;
pub mod system;

pub use bus::BusArbiter;
pub use cache::{Cache, CacheConfig};
pub use counters::{CostTable, Metrics, OpClass, PerfCounters};
pub use cpu::{Core, TrapCause};
pub use kernel::{register_kernel_span, KernelReject, KernelSpan, NativeShape, SpanState};
pub use mem::{layout, MainMemory};
pub use mmio::{FaultKind, FaultPlan, FaultSpec, SharedDevices, StimEvent, StimPlan};
pub use parallel::{resolve_host_threads, ParallelStats};
pub use predecode::{CodeMem, CodeTable, PreInst, SlotState};
pub use system::{RunExit, SchedMode, SimError, System, SystemConfig, TimingModel};
