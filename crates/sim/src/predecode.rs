//! Predecoded instruction stream.
//!
//! The seed interpreter paid, on **every** executed instruction, a
//! `region_of` range classification, an `Option`-cache decode lookup and a
//! hazard test that built and scanned a `[Option<Reg>; 3]` array. This
//! module removes all three: every executable word in the SDRAM code
//! window and the scratchpad lowers (eagerly at program load, lazily on
//! first fetch) into a [`PreInst`] — the decoded [`Inst`] plus everything
//! the hot loop would otherwise recompute per step:
//!
//! * a **source-register bitmask** and **destination index**, so the
//!   load-use / nm-writeback hazard test is one shift-and-mask;
//! * the slot's **region class** ([`SlotState::Sdram`] vs
//!   [`SlotState::Scratch`]), so fetch needs no address classification —
//!   the state byte tells the core directly whether the I-cache applies;
//! * a **staleness bit**, which doubles as the self-modifying-code guard:
//!   every guest store into a materialised code window flips the covered
//!   slot back to [`SlotState::Stale`], forcing a re-decode on next fetch.
//!
//! Two layout decisions came out of measurement rather than first
//! principles:
//!
//! * `PreInst` is exactly 16 bytes so `fetch` returns it in a register
//!   pair. (A variant that also precomputed the I-cache set/tag made the
//!   struct 20 bytes; it then travelled through a stack slot on every
//!   fetch and measured *slower* than recomputing two shifts, so the
//!   set/tag stay in the cache model.)
//! * The tables are **flat** `Vec<PreInst>`s — a fetch is one length check
//!   and one indexed load. (A demand-paged two-level variant added a
//!   dependent pointer chase to the per-instruction critical path.) The
//!   flat windows are instead materialised lazily: nothing is allocated
//!   until code actually executes or is preloaded, and the SDRAM window
//!   grows in `GROW_BYTES` steps up to [`CODE_WINDOW_MAX`].
//!
//! Executable SDRAM is therefore the low [`CODE_WINDOW_MAX`] bytes (the
//! same window the seed's decode cache memoised) — but where the seed
//! silently decoded-without-caching above it, a fetch beyond the window
//! now traps as `BadFetch`, like any fetch outside SDRAM/scratch.
//!
//! Host-side writes through [`crate::mem::MainMemory`] are only observed
//! until a slot is first fetched (lazy decode); rewriting code from the
//! host after execution started was already unsupported in the seed.

use izhi_isa::decode;
use izhi_isa::inst::Inst;

use crate::counters::CostTable;
use crate::kernel::{KernelSpan, SpanTable};
use crate::mem::{layout, MainMemory};

/// Word-granular read access to guest memory, as the decode paths need it.
///
/// [`CodeTable`] is a pure cache over the bytes actually resident in RAM;
/// abstracting the word read lets the same table logic run against
/// [`MainMemory`] (the exact scheduler and the stepped references) *and*
/// against the raw sharded RAM view the relaxed scheduler hands each
/// worker thread (which cannot hold a `&MainMemory` while other threads
/// write disjoint guest addresses).
pub trait CodeMem {
    /// Read the aligned 32-bit word at `addr`; `None` if unmapped.
    fn code_word(&self, addr: u32) -> Option<u32>;
}

impl CodeMem for MainMemory {
    #[inline]
    fn code_word(&self, addr: u32) -> Option<u32> {
        self.read_u32(addr)
    }
}

/// Decode state of one 4-byte code slot — doubles as the region class of
/// a successfully fetched slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SlotState {
    /// Never decoded, or invalidated by a store into the slot.
    Stale = 0,
    /// Decoded, resident in SDRAM (the I-cache applies on fetch).
    Sdram,
    /// Decoded, resident in the single-cycle scratchpad (uncached).
    Scratch,
    /// The word does not decode; fetching it traps.
    Illegal,
    /// Never stored: returned by `fetch` for pcs outside every executable
    /// window.
    OutOfRange,
}

/// Sentinel destination meaning "no register writeback" (safe shift index).
pub const NO_DEST: u8 = 63;

/// Flattened opcode of a predecoded slot: one jump resolves the whole
/// operation (the seed's `Inst` enum needed a second nested dispatch for
/// ALU / branch / nm subclasses on every step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum MicroOp {
    Lui,
    Auipc,
    Jal,
    Jalr,
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
    Lb,
    Lh,
    Lw,
    Lbu,
    Lhu,
    Sb,
    Sh,
    Sw,
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
    Fence,
    Ecall,
    Ebreak,
    /// Both Zicsr forms: this core's CSRs are read-only, so only the read
    /// matters; `imm` carries the CSR number.
    Csr,
    Nmldl,
    Nmldh,
    Nmpn,
    Nmdec,
}

impl MicroOp {
    /// Every decodable micro-op, in declaration order, for exhaustive
    /// sweeps (the cost-model tests assert that each one is charged at
    /// least one cycle, and that this list stays gap-free against the
    /// `repr(u8)` discriminants). When adding a variant, append it here
    /// too — `OpClass::of`'s exhaustive match will force the cost
    /// assignment in the same change.
    pub const ALL: &'static [MicroOp] = &[
        MicroOp::Lui,
        MicroOp::Auipc,
        MicroOp::Jal,
        MicroOp::Jalr,
        MicroOp::Beq,
        MicroOp::Bne,
        MicroOp::Blt,
        MicroOp::Bge,
        MicroOp::Bltu,
        MicroOp::Bgeu,
        MicroOp::Lb,
        MicroOp::Lh,
        MicroOp::Lw,
        MicroOp::Lbu,
        MicroOp::Lhu,
        MicroOp::Sb,
        MicroOp::Sh,
        MicroOp::Sw,
        MicroOp::Addi,
        MicroOp::Slti,
        MicroOp::Sltiu,
        MicroOp::Xori,
        MicroOp::Ori,
        MicroOp::Andi,
        MicroOp::Slli,
        MicroOp::Srli,
        MicroOp::Srai,
        MicroOp::Add,
        MicroOp::Sub,
        MicroOp::Sll,
        MicroOp::Slt,
        MicroOp::Sltu,
        MicroOp::Xor,
        MicroOp::Srl,
        MicroOp::Sra,
        MicroOp::Or,
        MicroOp::And,
        MicroOp::Mul,
        MicroOp::Mulh,
        MicroOp::Mulhsu,
        MicroOp::Mulhu,
        MicroOp::Div,
        MicroOp::Divu,
        MicroOp::Rem,
        MicroOp::Remu,
        MicroOp::Fence,
        MicroOp::Ecall,
        MicroOp::Ebreak,
        MicroOp::Csr,
        MicroOp::Nmldl,
        MicroOp::Nmldh,
        MicroOp::Nmpn,
        MicroOp::Nmdec,
    ];

    /// Control transfers end a superblock but execute as its final op
    /// (their `next_pc` is simply where the core resumes single-stepping).
    pub(crate) fn ends_superblock(self) -> bool {
        matches!(
            self,
            MicroOp::Jal
                | MicroOp::Jalr
                | MicroOp::Beq
                | MicroOp::Bne
                | MicroOp::Blt
                | MicroOp::Bge
                | MicroOp::Bltu
                | MicroOp::Bgeu
        )
    }

    /// Ops a superblock must stop *before*: `ecall`/`ebreak` drive the
    /// halt machinery, and `csr` reads the live clock/instret — both are
    /// stale inside a batched block under the relaxed clocks, and the
    /// fused tables are shared across timing policies, so exclusion must
    /// be timing-agnostic.
    pub(crate) fn excluded_from_superblock(self) -> bool {
        matches!(self, MicroOp::Ecall | MicroOp::Ebreak | MicroOp::Csr)
    }
}

/// One predecoded 4-byte slot (16 bytes, returned by value in registers).
///
/// `imm` is pre-resolved where the slot's pc allows it: branches and `jal`
/// store their **absolute target**, `auipc` stores the final `pc + imm`
/// value, and `Csr` stores the CSR number.
#[derive(Debug, Clone, Copy)]
pub struct PreInst {
    /// Flat opcode.
    pub op: MicroOp,
    /// rd field (0–31; writes to x0 are discarded by the register file).
    pub rd: u8,
    /// rs1 field (0–31).
    pub rs1: u8,
    /// rs2 field (0–31).
    pub rs2: u8,
    /// Immediate / absolute target / CSR number (see struct docs).
    pub imm: i32,
    /// Bit `r` set iff architectural register `r != x0` is a source.
    pub src_mask: u32,
    /// Destination register index, or [`NO_DEST`].
    pub dest: u8,
    /// Decode state / region class.
    pub state: SlotState,
}

impl PreInst {
    pub(crate) const EMPTY: PreInst = PreInst {
        op: MicroOp::Ebreak,
        rd: 0,
        rs1: 0,
        rs2: 0,
        imm: 0,
        src_mask: 0,
        dest: NO_DEST,
        state: SlotState::Stale,
    };

    const OUT_OF_RANGE: PreInst = PreInst {
        state: SlotState::OutOfRange,
        ..PreInst::EMPTY
    };
}

/// Executable SDRAM is the low 1 MiB (the seed's decode-cache window).
pub const CODE_WINDOW_MAX: u32 = 1024 * 1024;
/// Window growth increment when a fetch or preload lands beyond the
/// currently materialised slots.
const GROW_BYTES: u32 = 64 * 1024;

/// Maximum superblock length in instructions. Long enough to swallow the
/// engine's phase-B neuron body in one block, short enough that the
/// store-invalidation backscan and the per-entry stack copy stay cheap.
pub const MAX_SB: usize = 32;

/// The per-system predecode tables (shared by all cores under the exact
/// scheduler and the stepped references; the relaxed scheduler clones one
/// shard per core — the table is a pure cache, so divergent shards stay
/// correct once each core's stores into code reach the other shards,
/// which the scheduler's commit pass sees to).
///
/// Alongside the per-slot stream the table carries the **superblock
/// index**: `sb_len[x]` is the length of the straight-line fused run
/// starting at SDRAM slot `x` (`0` = not yet formed, `1` = unfusible,
/// `>= 2` = a run the interpreter may execute as one dispatch), and
/// `sb_est[x]` its total [`CostTable::DEFAULT`] cost (the relaxed
/// clocks' conservative bound-check sum). Formation only ever fuses
/// already-decoded SDRAM slots, so a `Stale` slot is never covered by a
/// block — the store-to-code guard relies on that invariant to skip the
/// overlap backscan for never-executed (data) slots.
#[derive(Debug, Clone)]
pub struct CodeTable {
    /// Covers `[0, sdram.len() * 4)`; grown on demand up to `sdram_cap`.
    sdram: Vec<PreInst>,
    /// Superblock length per SDRAM slot (kept sized with `sdram`).
    sb_len: Vec<u16>,
    /// Total estimated-timing cost per superblock (sized with `sdram`).
    sb_est: Vec<u32>,
    /// Empty until scratch-resident code first runs, then the full region.
    scratch: Vec<PreInst>,
    /// Exclusive upper bound of executable SDRAM.
    sdram_cap: u32,
    scratch_size: u32,
    /// Registered kernel spans (see [`crate::kernel`]). Rides the table's
    /// clones into run templates and per-core shards, and shares the
    /// store-to-code guard below.
    pub(crate) kernels: SpanTable,
}

impl CodeTable {
    /// Build empty tables for the given memory sizes. Nothing is
    /// allocated until code is preloaded or fetched.
    pub fn new(sdram_size: u32, scratch_size: u32) -> Self {
        CodeTable {
            sdram: Vec::new(),
            sb_len: Vec::new(),
            sb_est: Vec::new(),
            scratch: Vec::new(),
            sdram_cap: sdram_size.min(CODE_WINDOW_MAX) & !3,
            scratch_size: scratch_size & !3,
            kernels: SpanTable::default(),
        }
    }

    /// Exclusive upper bound of executable SDRAM (test hook).
    pub fn sdram_limit(&self) -> u32 {
        self.sdram_cap
    }

    /// The registered kernel spans (inspection/tests).
    pub fn kernel_spans(&self) -> &[KernelSpan] {
        self.kernels.spans()
    }

    /// Move the kernel spans out of this table (see
    /// [`SpanTable::take`]); used when a fresh table replaces this one
    /// across a run boundary.
    pub fn take_kernel_spans(&mut self) -> Vec<KernelSpan> {
        self.kernels.take()
    }

    /// Re-install spans taken from a previous table; every surviving span
    /// comes back [`crate::kernel::SpanState::Dirty`] and must re-verify
    /// its fingerprint before the next batch (see [`SpanTable::adopt`]).
    pub fn adopt_kernel_spans(&mut self, spans: Vec<KernelSpan>) {
        self.kernels.adopt(spans);
    }

    fn lower(pc: u32, word: u32, in_scratch: bool) -> PreInst {
        use izhi_isa::inst::{AluImmOp, AluOp, BranchOp, LoadOp, NmOp, StoreOp};
        let Ok(inst) = decode(word) else {
            return PreInst {
                state: SlotState::Illegal,
                ..PreInst::EMPTY
            };
        };
        let mut src_mask = 0u32;
        for src in inst.sources().into_iter().flatten() {
            src_mask |= 1u32 << src.idx();
        }
        let mut pre = PreInst {
            src_mask,
            dest: inst.dest().map_or(NO_DEST, |r| r.idx() as u8),
            state: if in_scratch {
                SlotState::Scratch
            } else {
                SlotState::Sdram
            },
            ..PreInst::EMPTY
        };
        let target = |imm: i32| pc.wrapping_add(imm as u32) as i32;
        match inst {
            Inst::Lui { rd, imm } => {
                (pre.op, pre.rd, pre.imm) = (MicroOp::Lui, rd.idx() as u8, imm);
            }
            Inst::Auipc { rd, imm } => {
                // Fully resolved: auipc is a constant load at a fixed pc.
                (pre.op, pre.rd, pre.imm) = (MicroOp::Auipc, rd.idx() as u8, target(imm));
            }
            Inst::Jal { rd, imm } => {
                (pre.op, pre.rd, pre.imm) = (MicroOp::Jal, rd.idx() as u8, target(imm));
            }
            Inst::Jalr { rd, rs1, imm } => {
                (pre.op, pre.rd, pre.rs1, pre.imm) =
                    (MicroOp::Jalr, rd.idx() as u8, rs1.idx() as u8, imm);
            }
            Inst::Branch { op, rs1, rs2, imm } => {
                pre.op = match op {
                    BranchOp::Eq => MicroOp::Beq,
                    BranchOp::Ne => MicroOp::Bne,
                    BranchOp::Lt => MicroOp::Blt,
                    BranchOp::Ge => MicroOp::Bge,
                    BranchOp::Ltu => MicroOp::Bltu,
                    BranchOp::Geu => MicroOp::Bgeu,
                };
                (pre.rs1, pre.rs2, pre.imm) = (rs1.idx() as u8, rs2.idx() as u8, target(imm));
            }
            Inst::Load { op, rd, rs1, imm } => {
                pre.op = match op {
                    LoadOp::Lb => MicroOp::Lb,
                    LoadOp::Lh => MicroOp::Lh,
                    LoadOp::Lw => MicroOp::Lw,
                    LoadOp::Lbu => MicroOp::Lbu,
                    LoadOp::Lhu => MicroOp::Lhu,
                };
                (pre.rd, pre.rs1, pre.imm) = (rd.idx() as u8, rs1.idx() as u8, imm);
            }
            Inst::Store { op, rs1, rs2, imm } => {
                pre.op = match op {
                    StoreOp::Sb => MicroOp::Sb,
                    StoreOp::Sh => MicroOp::Sh,
                    StoreOp::Sw => MicroOp::Sw,
                };
                (pre.rs1, pre.rs2, pre.imm) = (rs1.idx() as u8, rs2.idx() as u8, imm);
            }
            Inst::OpImm { op, rd, rs1, imm } => {
                pre.op = match op {
                    AluImmOp::Addi => MicroOp::Addi,
                    AluImmOp::Slti => MicroOp::Slti,
                    AluImmOp::Sltiu => MicroOp::Sltiu,
                    AluImmOp::Xori => MicroOp::Xori,
                    AluImmOp::Ori => MicroOp::Ori,
                    AluImmOp::Andi => MicroOp::Andi,
                    AluImmOp::Slli => MicroOp::Slli,
                    AluImmOp::Srli => MicroOp::Srli,
                    AluImmOp::Srai => MicroOp::Srai,
                };
                (pre.rd, pre.rs1, pre.imm) = (rd.idx() as u8, rs1.idx() as u8, imm);
            }
            Inst::Op { op, rd, rs1, rs2 } => {
                pre.op = match op {
                    AluOp::Add => MicroOp::Add,
                    AluOp::Sub => MicroOp::Sub,
                    AluOp::Sll => MicroOp::Sll,
                    AluOp::Slt => MicroOp::Slt,
                    AluOp::Sltu => MicroOp::Sltu,
                    AluOp::Xor => MicroOp::Xor,
                    AluOp::Srl => MicroOp::Srl,
                    AluOp::Sra => MicroOp::Sra,
                    AluOp::Or => MicroOp::Or,
                    AluOp::And => MicroOp::And,
                    AluOp::Mul => MicroOp::Mul,
                    AluOp::Mulh => MicroOp::Mulh,
                    AluOp::Mulhsu => MicroOp::Mulhsu,
                    AluOp::Mulhu => MicroOp::Mulhu,
                    AluOp::Div => MicroOp::Div,
                    AluOp::Divu => MicroOp::Divu,
                    AluOp::Rem => MicroOp::Rem,
                    AluOp::Remu => MicroOp::Remu,
                };
                (pre.rd, pre.rs1, pre.rs2) = (rd.idx() as u8, rs1.idx() as u8, rs2.idx() as u8);
            }
            Inst::Fence => pre.op = MicroOp::Fence,
            Inst::Ecall => pre.op = MicroOp::Ecall,
            Inst::Ebreak => pre.op = MicroOp::Ebreak,
            // The core's CSRs are read-only: both Zicsr forms reduce to
            // "rd <- csr_read(csr)" (set/clear/write are dropped, as in
            // the seed).
            Inst::Csr { rd, csr, .. } | Inst::CsrImm { rd, csr, .. } => {
                (pre.op, pre.rd, pre.imm) = (MicroOp::Csr, rd.idx() as u8, i32::from(csr));
            }
            Inst::Nm { op, rd, rs1, rs2 } => {
                pre.op = match op {
                    NmOp::Nmldl => MicroOp::Nmldl,
                    NmOp::Nmldh => MicroOp::Nmldh,
                    NmOp::Nmpn => MicroOp::Nmpn,
                    NmOp::Nmdec => MicroOp::Nmdec,
                };
                (pre.rd, pre.rs1, pre.rs2) = (rd.idx() as u8, rs1.idx() as u8, rs2.idx() as u8);
            }
        }
        pre
    }

    /// Fetch the slot covering the 4-aligned `pc`, decoding it on first
    /// use. `mem` is only read on the stale/illegal/grow paths. The
    /// returned slot's `state` is the region class (or `Illegal` /
    /// `OutOfRange`).
    #[inline]
    pub fn fetch<M: CodeMem>(&mut self, pc: u32, mem: &M) -> PreInst {
        if let Some(slot) = self.sdram.get((pc >> 2) as usize) {
            if slot.state != SlotState::Stale {
                return *slot;
            }
            return self.fetch_slow(pc, mem);
        }
        let off = pc.wrapping_sub(layout::SCRATCH_BASE);
        if let Some(slot) = self.scratch.get((off >> 2) as usize) {
            if slot.state != SlotState::Stale {
                return *slot;
            }
        }
        self.fetch_slow(pc, mem)
    }

    /// Materialise/decode path: grows the owning window if needed, lowers
    /// the word, and caches it.
    #[cold]
    fn fetch_slow<M: CodeMem>(&mut self, pc: u32, mem: &M) -> PreInst {
        let (in_scratch, idx) = if pc < self.sdram_cap {
            let needed = (pc.saturating_add(GROW_BYTES)).min(self.sdram_cap);
            if (needed / 4) as usize > self.sdram.len() {
                self.sdram.resize((needed / 4) as usize, PreInst::EMPTY);
                self.sb_len.resize(self.sdram.len(), 0);
                self.sb_est.resize(self.sdram.len(), 0);
            }
            (false, (pc >> 2) as usize)
        } else {
            let off = pc.wrapping_sub(layout::SCRATCH_BASE);
            if off < self.scratch_size {
                if self.scratch.is_empty() {
                    self.scratch = vec![PreInst::EMPTY; (self.scratch_size / 4) as usize];
                }
                (true, (off >> 2) as usize)
            } else {
                return PreInst::OUT_OF_RANGE;
            }
        };
        let Some(word) = mem.code_word(pc) else {
            return PreInst::OUT_OF_RANGE;
        };
        let table = if in_scratch {
            &mut self.scratch
        } else {
            &mut self.sdram
        };
        if table[idx].state == SlotState::Stale {
            table[idx] = Self::lower(pc, word, in_scratch);
        }
        table[idx]
    }

    /// Store-to-code guard: a guest store to `addr` invalidates the slot
    /// whose word it touches (alignment rules keep every store within one
    /// word) and every superblock overlapping that slot. Stores into
    /// windows never materialised are free, and stores to already-stale
    /// slots skip the overlap backscan entirely (a stale slot is never
    /// covered by a block — see the struct docs), so repeated data stores
    /// inside the code window stay one branch each.
    ///
    /// Returns whether the store landed where this table may hold decoded
    /// code: a materialised window or a kernel span. The relaxed scheduler
    /// replays exactly those stores into the other cores' tables.
    #[inline]
    pub fn invalidate_store(&mut self, addr: u32) -> bool {
        // Kernel spans carry decoded copies of their code words, so the
        // guard must reach them even when the covered slot is already
        // Stale (e.g. right after a table rebuild adopted the spans).
        let in_span = self.kernels.note_store(addr);
        let x = (addr >> 2) as usize;
        let in_window = if let Some(slot) = self.sdram.get_mut(x) {
            if slot.state != SlotState::Stale {
                slot.state = SlotState::Stale;
                for y in x.saturating_sub(MAX_SB - 1)..=x {
                    if usize::from(self.sb_len[y]) > x - y {
                        self.sb_len[y] = 0;
                    }
                }
            }
            true
        } else {
            let off = addr.wrapping_sub(layout::SCRATCH_BASE);
            match self.scratch.get_mut((off >> 2) as usize) {
                Some(slot) => {
                    slot.state = SlotState::Stale;
                    true
                }
                None => false,
            }
        };
        in_span | in_window
    }

    /// Extent of the materialised windows: SDRAM slots, and whether the
    /// scratchpad window exists.
    pub(crate) fn window(&self) -> (usize, bool) {
        (self.sdram.len(), !self.scratch.is_empty())
    }

    /// Grow the materialised windows to cover `other`'s, with the new
    /// slots [`SlotState::Stale`]. The relaxed scheduler keeps the cores'
    /// tables equally wide, so a store lands in one core's windows
    /// wherever another core may have decoded code.
    pub(crate) fn widen_to(&mut self, other: &CodeTable) {
        if other.sdram.len() > self.sdram.len() {
            self.sdram.resize(other.sdram.len(), PreInst::EMPTY);
            self.sb_len.resize(other.sdram.len(), 0);
            self.sb_est.resize(other.sdram.len(), 0);
        }
        if self.scratch.is_empty() && !other.scratch.is_empty() {
            self.scratch = vec![PreInst::EMPTY; other.scratch.len()];
        }
    }

    /// Look up (forming on first use) the superblock starting at the
    /// 4-aligned `pc`. On a hit the fused run is copied into `buf` and
    /// `(len, est)` is returned, where `len >= 2` is the instruction count
    /// and `est` the block's total [`CostTable::DEFAULT`] cost; `(0, 0)`
    /// means "single-step this pc" (scratch-resident, unfusible, or not
    /// yet decodable).
    #[inline]
    pub(crate) fn superblock(&mut self, pc: u32, buf: &mut [PreInst; MAX_SB]) -> (u32, u32) {
        let x = (pc >> 2) as usize;
        let mut len = match self.sb_len.get(x) {
            Some(&l) => l,
            None => return (0, 0),
        };
        if len == 0 {
            len = self.form_superblock(x);
        }
        if len < 2 {
            return (0, 0);
        }
        let len = usize::from(len);
        buf[..len].copy_from_slice(&self.sdram[x..x + len]);
        (len as u32, self.sb_est[x])
    }

    /// Formation scan: fuse decoded straight-line SDRAM slots from `x`
    /// until a control transfer (included as the terminal op), an excluded
    /// op (`ecall`/`ebreak`/`csr` — the block ends *before* it), an
    /// undecoded/illegal slot, or [`MAX_SB`]. Runs shorter than 2 are
    /// marked unfusible (`sb_len = 1`) — except when the scan stopped at a
    /// `Stale` slot, which stays unformed (`0`) so the block re-forms once
    /// the neighbour decodes through a normal fetch.
    #[cold]
    fn form_superblock(&mut self, x: usize) -> u16 {
        let max = MAX_SB.min(self.sdram.len() - x);
        let mut len = 0usize;
        let mut est = 0u32;
        let mut stale_stop = false;
        while len < max {
            let slot = self.sdram[x + len];
            match slot.state {
                SlotState::Sdram => {}
                SlotState::Stale => {
                    stale_stop = true;
                    break;
                }
                _ => break,
            }
            if slot.op.excluded_from_superblock() {
                break;
            }
            est = est.saturating_add(CostTable::DEFAULT.op_cost(slot.op) as u32);
            len += 1;
            if slot.op.ends_superblock() {
                break;
            }
        }
        if len >= 2 {
            self.sb_len[x] = len as u16;
            self.sb_est[x] = est;
            len as u16
        } else {
            if !stale_stop {
                self.sb_len[x] = 1;
            }
            0
        }
    }

    /// Eagerly lower `[base, base + len)` (used right after program load
    /// so the first pass through the code pays no decode cost at all).
    /// Spans beyond the executable windows are skipped — they can hold
    /// data, but fetching from them traps.
    pub fn preload(&mut self, base: u32, len: u32, mem: &MainMemory) {
        let end = base.saturating_add(len);
        let mut pc = base & !3;
        while pc < end {
            let in_window =
                pc < self.sdram_cap || pc.wrapping_sub(layout::SCRATCH_BASE) < self.scratch_size;
            if !in_window {
                pc += 4;
                continue;
            }
            // Route through the slow path so windows materialise and the
            // slot decodes exactly as a first fetch would. Going through
            // the store guard also drops any superblock (or unfusible
            // mark) formed over a previous load of this span.
            self.invalidate_store(pc);
            self.fetch_slow(pc, mem);
            pc += 4;
        }
        // Pre-form the superblock index over the span so template-stamped
        // runs (and the first pass through freshly loaded code) start hot.
        let mut pc = base & !3;
        while pc < end.min(self.sdram_cap) {
            let x = (pc >> 2) as usize;
            if x >= self.sdram.len() {
                break;
            }
            if self.sb_len[x] == 0 {
                self.form_superblock(x);
            }
            pc += 4;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{CostTable, OpClass};
    use crate::mem::MainMemory;
    use izhi_isa::encode;
    use izhi_isa::inst::{AluOp, BranchOp, CsrOp, Inst, LoadOp, NmOp, StoreOp};
    use izhi_isa::reg::Reg;

    /// Write `insts` at pc 0, preload, and return the superblock formed
    /// there: the fused ops and the formation-time `sb_est` cost sum.
    fn form(insts: &[Inst]) -> (Vec<MicroOp>, u32) {
        let mut mem = MainMemory::new(64 * 1024, 4096);
        let mut code = CodeTable::new(64 * 1024, 4096);
        for (i, inst) in insts.iter().enumerate() {
            mem.write_u32(4 * i as u32, encode(*inst));
        }
        code.preload(0, 4 * insts.len() as u32, &mem);
        let mut buf = [PreInst::EMPTY; MAX_SB];
        let (len, est) = code.superblock(0, &mut buf);
        (buf[..len as usize].iter().map(|p| p.op).collect(), est)
    }

    /// The superblock cost audit: a block's formation-time `sb_est` must
    /// equal the per-op sum the Estimated policy charges when the block
    /// retires (`exec_block` adds `CostTable::DEFAULT.op_cost` per op),
    /// exercised per [`OpClass`]. Any drift between the two sums would
    /// let the relaxed bound check (`time + est > stop`) disagree with
    /// the clock the block actually advances.
    #[test]
    fn superblock_est_equals_per_op_sum_for_every_op_class() {
        let x1 = Reg(1);
        let x2 = Reg(2);
        // One fusible representative per class (Branch-class ops are
        // block *terminators*; Csr-class ops are excluded entirely and
        // covered by their own test below).
        let reps: [(OpClass, Inst); 6] = [
            (
                OpClass::Alu,
                Inst::Op {
                    op: AluOp::Add,
                    rd: x1,
                    rs1: x1,
                    rs2: x2,
                },
            ),
            (
                OpClass::Load,
                Inst::Load {
                    op: LoadOp::Lw,
                    rd: x1,
                    rs1: x2,
                    imm: 0,
                },
            ),
            (
                OpClass::Store,
                Inst::Store {
                    op: StoreOp::Sw,
                    rs1: x2,
                    rs2: x1,
                    imm: 0,
                },
            ),
            (
                OpClass::Mul,
                Inst::Op {
                    op: AluOp::Mul,
                    rd: x1,
                    rs1: x1,
                    rs2: x2,
                },
            ),
            (
                OpClass::Div,
                Inst::Op {
                    op: AluOp::Div,
                    rd: x1,
                    rs1: x1,
                    rs2: x2,
                },
            ),
            (
                OpClass::Npu,
                Inst::Nm {
                    op: NmOp::Nmdec,
                    rd: x1,
                    rs1: x1,
                    rs2: x2,
                },
            ),
        ];
        let table = CostTable::DEFAULT;
        for (class, rep) in reps {
            let (ops, est) = form(&[rep, rep, rep, Inst::Jal { rd: Reg(0), imm: 8 }]);
            assert_eq!(ops.len(), 4, "{class:?}: three ops + terminal jump fuse");
            let per_op: u64 = ops.iter().map(|&op| table.op_cost(op)).sum();
            assert_eq!(
                u64::from(est),
                per_op,
                "{class:?}: sb_est diverges from the per-op Estimated sum"
            );
            assert_eq!(
                u64::from(est),
                3 * table.cost(class) + table.cost(OpClass::Branch),
                "{class:?}: closed-form class cost"
            );
            // `est` must also stay a conservative bound for Unit timing,
            // which charges one cycle per retired op.
            assert!(u64::from(est) >= ops.len() as u64);
        }
    }

    /// Branch-class ops terminate a block and are charged *inside* it.
    #[test]
    fn superblock_est_charges_the_terminal_branch() {
        let add = Inst::Op {
            op: AluOp::Add,
            rd: Reg(1),
            rs1: Reg(1),
            rs2: Reg(2),
        };
        let beq = Inst::Branch {
            op: BranchOp::Eq,
            rs1: Reg(1),
            rs2: Reg(2),
            imm: 8,
        };
        let (ops, est) = form(&[add, beq, add, add]);
        assert_eq!(ops, [MicroOp::Add, MicroOp::Beq]);
        let table = CostTable::DEFAULT;
        assert_eq!(
            u64::from(est),
            table.cost(OpClass::Alu) + table.cost(OpClass::Branch)
        );
    }

    /// Csr-class ops (`csr`/`ecall`/`ebreak`) never enter a block: the
    /// block ends *before* them and their cost is charged by the
    /// single-step fallback, so `sb_est` must not include them.
    #[test]
    fn superblock_est_excludes_csr_class_ops() {
        let add = Inst::Op {
            op: AluOp::Add,
            rd: Reg(1),
            rs1: Reg(1),
            rs2: Reg(2),
        };
        let csr = Inst::Csr {
            op: CsrOp::Rs,
            rd: Reg(1),
            rs1: Reg(0),
            csr: 0xC00,
        };
        for stopper in [csr, Inst::Ecall, Inst::Ebreak] {
            let (ops, est) = form(&[add, add, stopper, add]);
            assert_eq!(ops, [MicroOp::Add, MicroOp::Add]);
            assert_eq!(u64::from(est), 2 * CostTable::DEFAULT.cost(OpClass::Alu));
        }
    }
}
