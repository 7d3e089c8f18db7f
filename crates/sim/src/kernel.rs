//! Batch execution of the guest's registered hot loops.
//!
//! Superblocks remove the per-instruction fetch/dispatch cost of a
//! straight-line run; this module removes the per-*iteration* cost of the
//! engine's phase-A scatter and phase-B neuron-update loops. The engine
//! registers each loop it emits as a [`KernelSpan`] — the loop's entry pc,
//! its decoded body, and a fingerprint of the raw code words — and the
//! relaxed interpreters ([`UnitTiming`](crate::cpu) / estimated timing)
//! execute a registered span as one **batch** of whole loop iterations per
//! dispatch, in one of two tiers:
//!
//! * **native** — a body that matched a [`NativeShape`] at registration
//!   runs whole iterations as straight host code with a closed-form end
//!   state, whenever its up-front screens pass: the dense phase-A scatter
//!   ([`NativeShape::DenseAxpy`]), the NPU phase-B neuron update
//!   ([`NativeShape::NpuNeuron`]) and the sparse phase-A CSR walk
//!   ([`NativeShape::CsrScatter`]);
//! * **generic** — every other batch, and whatever a native batch leaves
//!   of its dispatch, is the interpreter itself: the copied trace runs
//!   through `Core::exec_op` in superblock mode, following the next pc
//!   each op returns.
//!
//! No op's semantics are written twice: a native iteration calls the same
//! `NmRegs::exec_nmldl`, `Dcu::exec_nmdec`, `NpUnit::update` and memory
//! interface the interpreter does. Each core counts its batched
//! retirements in `Core::kernel_instret` and the native tier's share of
//! them in `Core::native_instret`, once per batch.
//!
//! ## Bit-identity by construction
//!
//! The generic tier retires every op through the same `exec_op` the
//! single-step and superblock paths use, so registers, memory, counters
//! and traps are theirs by definition. Batching only changes *when* the
//! per-op checks run, and the rules superblocks use keep that invisible:
//!
//! * an iteration only starts when its whole conservative cost fits under
//!   the quantum bound and its whole length fits under the armed fault
//!   trigger, so scheduler stop points and fault-plan trigger points are
//!   the single-step ones;
//! * an MMIO access defers with `pc` parked on it, before any state moves
//!   (devices read the live clock, and the host-parallel scheduler must
//!   see interactive registers before they execute);
//! * a store into the span's own code ends the batch before the copied
//!   trace can go stale — right after the op when the word lies ahead in
//!   the trace, at the next back-edge when that word already ran this
//!   iteration (the store marked the span [`SpanState::Dirty`]);
//! * a trap propagates exactly as from a superblock.
//!
//! The native tier checks every quantity the per-op path screens in closed
//! form and hands anything it cannot prove to the generic tier:
//!
//! * it admits exactly the iterations the generic tier admits. That check
//!   charges the whole trace's cost and length, while an iteration only
//!   advances the clock and `instret` by its own path's (a native NPU
//!   iteration skips the spike export);
//! * its sweeps are screened once per batch (`Sweep::screen`): each in one
//!   RAM region, aligned, so no access reaches MMIO or traps, and stores
//!   clear of the span's own code; each scatter target is screened per
//!   edge. Sweeps may overlap one another: iterations run in guest access
//!   order from memory, so an overlap reads what the guest reads;
//! * an iteration it cannot prove is never started: because
//!   `NpUnit::update` is pure, a neuron that would spike is detected before
//!   anything of its iteration commits, and the generic tier runs it
//!   (deferring at the spike-log store); a scatter target that fails its
//!   screen hands the rest of the batch over the same way.
//!
//! Measured on a 2-vCPU Xeon VM (one core, Unit clock, best of five
//! runs): a native NPU neuron costs 24-26 ns against 97-119 ns in the
//! generic tier, a native scatter edge 8.5 ns against 50 ns (rows of 12
//! edges, dispatch included).
//!
//! Exact timing keeps interpreting (the cycle model consults caches, the
//! shared bus and hazard state per instruction — exactly what batching
//! elides), mirroring the superblock would-miss-fetch rule.
//!
//! ## Registration: a structural audit
//!
//! [`register_kernel_span`] does not pattern-match a particular loop
//! shape. It walks the decoded stream from the entry and accepts any
//! single-entry loop in which every op is batchable (no `jalr`/`fence`/
//! `ecall`/`ebreak`/`csr`; `jal` only as the non-linking `jal x0`, an
//! unconditional jump), every interior branch or jump targets strictly
//! forward within the span, and the final op is a conditional branch back
//! to the entry — the sole back-edge. This covers all five emitted loop
//! shapes (dense/sparse/plastic phase A, NPU and base-fixed phase B) and
//! is immune to assembler relaxation or peephole drift; anything else is
//! rejected, which only costs performance. The [`NativeShape`] matchers
//! run on the accepted body afterwards; `tests/span_shapes.rs` in
//! `izhi_programs` pins which shape each engine span matches, so a
//! matcher that stops matching fails a test instead of silently costing
//! speed. The FNV-1a fingerprint over the raw code
//! words makes spans self-verifying after a guest store into the span
//! ([`SpanState::Dirty`]): if the words still hash to the fingerprint the
//! decoded trace is still exact, otherwise the span is rejected for good
//! and the interpreter (which re-decodes through the ordinary
//! store-invalidation path) takes over.

use izhi_core::dcu::Dcu;
use izhi_core::npu::NpUnit;
use izhi_fixed::Q15_16;
use izhi_isa::inst::{LoadOp, StoreOp};

use crate::cpu::{BlockExit, Core, ExecCtx, Timing, TrapCause};
use crate::mem::layout;
use crate::predecode::{CodeMem, CodeTable, MicroOp, PreInst, SlotState, NO_DEST};

/// Maximum decoded length of a kernel span in micro-ops (the base-fixed
/// phase-B body is ~84 ops; 192 leaves generous headroom while keeping the
/// per-batch stack buffer at 3 KiB).
pub const MAX_KERNEL_OPS: usize = 192;
/// Maximum registered spans per system (the engine registers at most a
/// phase-A and a phase-B loop; 8 leaves room for tests and future shapes).
pub const MAX_KERNEL_SPANS: usize = 8;

/// Lifecycle state of a registered span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanState {
    /// Verified against the code words; eligible for batch execution.
    Ready,
    /// A guest store landed inside the span (or the span was adopted
    /// across a run boundary): the fingerprint must re-verify against the
    /// live code words before the next batch.
    Dirty,
    /// The code under the span changed (or re-verification failed): the
    /// span is permanently disabled — the interpreter owns this pc range.
    Rejected,
}

/// A span body that additionally matched a **closed-form host loop** at
/// registration: the batch entry runs the matched shape as straight host
/// code — no per-op dispatch at all — whenever its up-front screens pass,
/// and falls back to the generic tier otherwise. The matcher is
/// purely structural over the decoded micro-ops (register roles are
/// extracted, not assumed), so it tracks the emitted code, never the
/// other way round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeShape {
    /// The dense phase-A scatter body:
    /// `M[pi] += sext16(M[pw]) << 8; pw += 2; pi += 4; cnt -= 1;`
    /// looping while `cnt != 0`.
    DenseAxpy {
        /// Weight pointer register (`lh` base, stride +2).
        pw: u8,
        /// Accumulator pointer register (`lw`/`sw` base, stride +4).
        pi: u8,
        /// Weight temporary (`lh` destination, then shifted).
        w: u8,
        /// Accumulator temporary (`lw` destination, then stored).
        s: u8,
        /// Down-counter register (`addi -1`, back-edge operand).
        cnt: u8,
    },
    /// The NPU phase-B neuron body: `nmldl` of the neuron's parameter
    /// pair, `nmdec` of its synaptic current (stored back), two `nmpn`
    /// half-steps on its VU word driven by the decayed current plus the
    /// thalamic drive, and a forward `beqz flag` around the spike export;
    /// looping while `idx != end`. Native iterations are the ones that do
    /// not spike — the export (whatever it holds) is never run natively.
    NpuNeuron {
        /// Parameter-pair pointer (`lw` at +0 and +4, stride +8).
        par: u8,
        /// Thalamic-drive pointer (`lh`, stride +2).
        thp: u8,
        /// Synaptic-current pointer (`lw`/`sw`, stride +4).
        curp: u8,
        /// VU-word pointer (`lw` and both `nmpn` stores, stride +4).
        vup: u8,
        /// First parameter word, then the VU word.
        lo: u8,
        /// Second parameter word, then the total drive.
        hi: u8,
        /// Thalamic drive (`lh`, then shifted into Q15.16).
        th: u8,
        /// Synaptic current, then the `nmpn` address and spike flag.
        cur: u8,
        /// `nmdec`'s τ operand (`li tau, imm`).
        tau: u8,
        /// τ itself.
        tau_imm: i32,
        /// The two half-steps' spike flags, or-ed.
        flag: u8,
        /// Neuron index (`addi +1`, back-edge operand).
        idx: u8,
        /// Loop bound (the other back-edge operand).
        end: u8,
    },
    /// The sparse phase-A CSR walk: per edge word at `cur`, the weight
    /// (`lh` of the high half) is scatter-added into the accumulator the
    /// target (`lhu` of the low half) selects,
    /// `M[base + 4·tgt] += sext16(w) << 8; cur += 4;`, looping while
    /// `cur != end`.
    CsrScatter {
        /// Edge cursor (stride +4).
        cur: u8,
        /// Edge end (the other back-edge operand).
        end: u8,
        /// Accumulator array base.
        base: u8,
        /// Weight temporary.
        w: u8,
        /// Target temporary, then the accumulator address.
        tgt: u8,
        /// Accumulator temporary (`lw` destination, then stored).
        acc: u8,
    },
}

/// Ops of the [`NativeShape::NpuNeuron`] body before the spike export
/// (everything up to and including the `beqz flag`).
const NPU_HEAD: usize = 22;
/// Ops of the [`NativeShape::NpuNeuron`] body after the spike export.
const NPU_TAIL: usize = 3;

impl NativeShape {
    /// The ops of a `len`-op body that a native iteration skips (the NPU
    /// spike export); empty for the shapes without a branch.
    fn skipped(self, len: usize) -> core::ops::Range<usize> {
        match self {
            NativeShape::NpuNeuron { .. } => NPU_HEAD..len - NPU_TAIL,
            NativeShape::DenseAxpy { .. } | NativeShape::CsrScatter { .. } => 0..0,
        }
    }

    /// Iterations until the guest loop's back-edge falls through, from
    /// register file `regs` (the loops are do-while: a zero count wraps,
    /// and a scatter walk whose distance is not a multiple of its stride
    /// never ends). The sweep screens reject anything too long to fit
    /// memory.
    fn trip_count(self, regs: &[u32; 32]) -> u64 {
        let full = |d: u32| if d == 0 { 1 << 32 } else { u64::from(d) };
        match self {
            NativeShape::DenseAxpy { cnt, .. } => full(regs[cnt as usize]),
            NativeShape::NpuNeuron { idx, end, .. } => {
                full(regs[end as usize].wrapping_sub(regs[idx as usize]))
            }
            NativeShape::CsrScatter { cur, end, .. } => {
                let d = regs[end as usize].wrapping_sub(regs[cur as usize]);
                if d.is_multiple_of(4) {
                    full(d) / 4
                } else {
                    u64::MAX
                }
            }
        }
    }
}

/// Why [`register_kernel_span`] refused a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelReject {
    /// The body contains an op the batch executor does not run
    /// (`jalr`/`fence`/`ecall`/`ebreak`/`csr`, or a linking `jal`).
    UnsupportedOp,
    /// An interior branch targets backward, outside the span, or a
    /// misaligned pc.
    BadBranchTarget,
    /// No back-edge within [`MAX_KERNEL_OPS`] ops of the entry.
    TooLong,
    /// The loop body is a single instruction (nothing to batch).
    TooShort,
    /// The entry (or the walk) left the executable SDRAM window.
    OutOfWindow,
    /// A word in the span does not decode (or is not resident SDRAM code).
    Undecodable,
    /// A span with this entry pc is already registered.
    DuplicateEntry,
    /// [`MAX_KERNEL_SPANS`] spans are already registered.
    TableFull,
}

impl core::fmt::Display for KernelReject {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            KernelReject::UnsupportedOp => "unsupported op in loop body",
            KernelReject::BadBranchTarget => "interior branch target not strictly forward in span",
            KernelReject::TooLong => "no back-edge within the op limit",
            KernelReject::TooShort => "loop body too short to batch",
            KernelReject::OutOfWindow => "entry outside the executable SDRAM window",
            KernelReject::Undecodable => "undecodable word in span",
            KernelReject::DuplicateEntry => "span already registered at this entry",
            KernelReject::TableFull => "kernel span table full",
        };
        f.write_str(s)
    }
}

/// One registered loop: `[entry, exit)` in guest SDRAM, the decoded body
/// (entry to back-edge inclusive) and the FNV-1a fingerprint of the raw
/// code words used to re-verify a [`SpanState::Dirty`] span.
#[derive(Debug, Clone)]
pub struct KernelSpan {
    /// Loop entry pc (the back-edge target).
    pub entry: u32,
    /// First pc past the back-edge branch.
    pub exit: u32,
    /// FNV-1a 64 over the raw words of `[entry, exit)`.
    pub fp: u64,
    /// Lifecycle state.
    pub state: SpanState,
    /// Closed-form host loop the body matched, if any.
    pub native: Option<NativeShape>,
    trace: Box<[PreInst]>,
}

impl KernelSpan {
    /// The decoded body, entry to back-edge inclusive.
    pub fn trace(&self) -> &[PreInst] {
        &self.trace
    }
}

/// Copyable span summary handed to the dispatch fast path (the trace
/// itself is copied separately into a stack buffer, and only after the
/// entry pc matched).
#[derive(Debug, Clone, Copy)]
pub struct KernelHeader {
    /// Index into the span table (for state writebacks).
    pub idx: u8,
    /// Lifecycle state at lookup time.
    pub state: SpanState,
    /// Loop entry pc.
    pub entry: u32,
    /// First pc past the back-edge.
    pub exit: u32,
    /// Decoded body length in ops.
    pub len: u32,
    /// Fingerprint for `Dirty` re-verification.
    pub fp: u64,
    /// Closed-form host loop the body matched, if any.
    pub native: Option<NativeShape>,
}

/// The registered spans of one [`CodeTable`], plus the covering pc range
/// `[lo, lo + len)` that keeps the store-to-code hook
/// ([`SpanTable::note_store`]) to one compare-and-branch for every store
/// that lands outside all spans.
#[derive(Debug, Clone)]
pub struct SpanTable {
    spans: Vec<KernelSpan>,
    lo: u32,
    len: u32,
}

impl Default for SpanTable {
    fn default() -> Self {
        SpanTable {
            spans: Vec::new(),
            // Empty cover: `addr - MAX` never lands below any span length.
            lo: u32::MAX,
            len: 0,
        }
    }
}

impl SpanTable {
    /// Whether any span is registered.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The registered spans (inspection/tests).
    pub fn spans(&self) -> &[KernelSpan] {
        &self.spans
    }

    /// Store-to-code hook, called for **every** guest store (from
    /// [`CodeTable::invalidate_store`]): one wrapping compare against the
    /// covering range, then the cold per-span scan only on a hit. Returns
    /// whether the store hit the covering range.
    #[inline]
    pub fn note_store(&mut self, addr: u32) -> bool {
        let hit = (addr & !3).wrapping_sub(self.lo) < self.len;
        if hit {
            self.dirty_word(addr & !3);
        }
        hit
    }

    /// Mark every non-rejected span covering `word` dirty.
    #[cold]
    fn dirty_word(&mut self, word: u32) {
        for s in &mut self.spans {
            if s.state != SpanState::Rejected && word.wrapping_sub(s.entry) < s.exit - s.entry {
                s.state = SpanState::Dirty;
            }
        }
    }

    /// Header of the span whose entry is exactly `pc`, if any.
    #[inline]
    pub fn lookup(&self, pc: u32) -> Option<KernelHeader> {
        self.spans.iter().enumerate().find_map(|(i, s)| {
            (s.entry == pc).then_some(KernelHeader {
                idx: i as u8,
                state: s.state,
                entry: s.entry,
                exit: s.exit,
                len: s.trace.len() as u32,
                fp: s.fp,
                native: s.native,
            })
        })
    }

    /// Span `idx`'s decoded trace.
    #[inline]
    pub fn trace(&self, idx: u8) -> &[PreInst] {
        &self.spans[idx as usize].trace
    }

    /// Span `idx`'s lifecycle state.
    #[inline]
    pub fn state(&self, idx: u8) -> SpanState {
        self.spans[idx as usize].state
    }

    /// Set span `idx`'s lifecycle state (dispatch re-verification).
    pub fn set_state(&mut self, idx: u8, state: SpanState) {
        self.spans[idx as usize].state = state;
    }

    /// Move the spans out (the relaxed scheduler rebuilds the system's
    /// [`CodeTable`] after a run; the spans survive the rebuild).
    pub fn take(&mut self) -> Vec<KernelSpan> {
        self.lo = u32::MAX;
        self.len = 0;
        std::mem::take(&mut self.spans)
    }

    /// Re-install spans taken from a previous table. Every non-rejected
    /// span comes back [`SpanState::Dirty`]: the new table has not
    /// observed the stores of the interim, so the fingerprint must
    /// re-verify before the next batch.
    pub fn adopt(&mut self, spans: Vec<KernelSpan>) {
        for mut s in spans {
            if s.state != SpanState::Rejected {
                s.state = SpanState::Dirty;
            }
            self.insert(s);
        }
    }

    fn insert(&mut self, span: KernelSpan) {
        // The first span sets the cover; the empty cover's `lo + len`
        // is `u32::MAX`, which would stretch it over all higher memory.
        let (lo, hi) = if self.spans.is_empty() {
            (span.entry, span.exit)
        } else {
            (self.lo.min(span.entry), (self.lo + self.len).max(span.exit))
        };
        self.lo = lo;
        self.len = hi - lo;
        self.spans.push(span);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_word(mut fp: u64, word: u32) -> u64 {
    for b in word.to_le_bytes() {
        fp = (fp ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    fp
}

/// Ops the batch executor runs. `jal x0` qualifies — it is an
/// unconditional branch whose link write is architecturally void — but a
/// linking `jal` and everything else that leaves the span or touches halt
/// machinery / the live clock (`jalr`/`fence`/`ecall`/`ebreak`/`csr`)
/// rejects the span at registration.
fn batchable(pre: &PreInst) -> bool {
    !matches!(
        pre.op,
        MicroOp::Jalr | MicroOp::Fence | MicroOp::Ecall | MicroOp::Ebreak | MicroOp::Csr
    ) && (pre.op != MicroOp::Jal || pre.rd == 0)
}

fn is_branch(op: MicroOp) -> bool {
    matches!(
        op,
        MicroOp::Beq | MicroOp::Bne | MicroOp::Blt | MicroOp::Bge | MicroOp::Bltu | MicroOp::Bgeu
    )
}

/// Whether all `roles` are distinct and non-zero, so every native end
/// state is well defined.
fn distinct(roles: &[u8]) -> bool {
    roles
        .iter()
        .enumerate()
        .all(|(i, r)| *r != 0 && !roles[i + 1..].contains(r))
}

/// Whether `p` reads registers `a` and `b`, in either order (`add`, `or`
/// and the branches the shapes use are symmetric in them).
fn reads(p: &PreInst, a: u8, b: u8) -> bool {
    (p.rs1 == a && p.rs2 == b) || (p.rs1 == b && p.rs2 == a)
}

/// Whether `p` is `addi r, r, imm`.
fn bump(p: &PreInst, r: u8, imm: i32) -> bool {
    p.op == MicroOp::Addi && p.rd == r && p.rs1 == r && p.imm == imm
}

/// Whether `p` is `slli r, r, sh`.
fn shift(p: &PreInst, r: u8, sh: i32) -> bool {
    p.op == MicroOp::Slli && p.rd == r && p.rs1 == r && p.imm & 0x1F == sh
}

/// Structural match of a decoded body against the [`NativeShape`]s.
/// Register roles are extracted from the micro-ops; immediates (strides,
/// shifts, offsets) must match exactly, and the roles must be distinct
/// and non-zero. Any mismatch just means "no native tier" — the generic
/// tier still runs the span.
fn match_native(trace: &[PreInst], entry: u32, exit: u32) -> Option<NativeShape> {
    match_dense_axpy(trace, entry)
        .or_else(|| match_npu_neuron(trace, entry, exit))
        .or_else(|| match_csr_scatter(trace, entry))
}

/// [`NativeShape::DenseAxpy`]: `lh w,0(pw); lw s,0(pi); slli w,w,8;
/// add s,s,w; sw s,0(pi); addi pw,pw,2; addi pi,pi,4; addi cnt,cnt,-1;
/// bne cnt,x0,entry`.
fn match_dense_axpy(trace: &[PreInst], entry: u32) -> Option<NativeShape> {
    let [lh, lw, sll, add, sw, apw, api, acnt, bne] = trace else {
        return None;
    };
    let (w, pw) = (lh.rd, lh.rs1);
    let (s, pi) = (lw.rd, lw.rs1);
    let cnt = acnt.rd;
    let ok = lh.op == MicroOp::Lh
        && lh.imm == 0
        && lw.op == MicroOp::Lw
        && lw.imm == 0
        && shift(sll, w, 8)
        && add.op == MicroOp::Add
        && add.rd == s
        && reads(add, s, w)
        && sw.op == MicroOp::Sw
        && sw.rs1 == pi
        && sw.rs2 == s
        && sw.imm == 0
        && bump(apw, pw, 2)
        && bump(api, pi, 4)
        && bump(acnt, cnt, -1)
        && bne.op == MicroOp::Bne
        && bne.rs1 == cnt
        && bne.rs2 == 0
        && bne.imm as u32 == entry
        && distinct(&[pw, pi, w, s, cnt]);
    ok.then_some(NativeShape::DenseAxpy { pw, pi, w, s, cnt })
}

/// [`NativeShape::NpuNeuron`], the engine's scheduled phase-B body:
///
/// ```text
/// lw lo,0(par); lw hi,4(par); lh th,0(thp); nmldl x0,lo,hi;
/// lw cur,0(curp); addi tau,x0,TAU; slli th,th,8; nmdec cur,cur,tau;
/// lw lo,0(vup); sw cur,0(curp); add hi,cur,th; add cur,x0,vup;
/// nmpn cur,lo,hi; lw lo,0(vup); add flag,x0,cur; add cur,x0,vup;
/// nmpn cur,lo,hi; addi curp,curp,4; or flag,flag,cur; addi par,par,8;
/// addi thp,thp,2; beqz flag,skip; <spike export>;
/// skip: addi idx,idx,1; addi vup,vup,4; bne idx,end,entry
/// ```
///
/// The export between `beqz` and `skip` is not matched: native
/// iterations never run it.
fn match_npu_neuron(trace: &[PreInst], entry: u32, exit: u32) -> Option<NativeShape> {
    if trace.len() < NPU_HEAD + NPU_TAIL {
        return None;
    }
    let [ld_lo, ld_hi, ld_th, ldl, ld_cur, li_tau, sh_th, dec, ld_vu, st_cur, sum, mv1, pn1, ld_vu2, mv_flag, mv2, pn2, b_cur, or_flag, b_par, b_thp, skip] =
        &trace[..NPU_HEAD]
    else {
        return None;
    };
    let [inc, b_vup, back] = &trace[trace.len() - NPU_TAIL..] else {
        return None;
    };
    let (lo, par) = (ld_lo.rd, ld_lo.rs1);
    let hi = ld_hi.rd;
    let (th, thp) = (ld_th.rd, ld_th.rs1);
    let (cur, curp) = (ld_cur.rd, ld_cur.rs1);
    let tau = li_tau.rd;
    let vup = ld_vu.rs1;
    let flag = mv_flag.rd;
    let idx = inc.rd;
    let end = if back.rs1 == idx { back.rs2 } else { back.rs1 };
    let load = |p: &PreInst, op: MicroOp, rd: u8, rs1: u8, imm: i32| {
        p.op == op && p.rd == rd && p.rs1 == rs1 && p.imm == imm
    };
    let mv = |p: &PreInst, rd: u8, rs: u8| p.op == MicroOp::Add && p.rd == rd && reads(p, 0, rs);
    let nmpn = |p: &PreInst| p.op == MicroOp::Nmpn && p.rd == cur && p.rs1 == lo && p.rs2 == hi;
    let ok = load(ld_lo, MicroOp::Lw, lo, par, 0)
        && load(ld_hi, MicroOp::Lw, hi, par, 4)
        && load(ld_th, MicroOp::Lh, th, thp, 0)
        && ldl.op == MicroOp::Nmldl
        && ldl.rd == 0
        && ldl.rs1 == lo
        && ldl.rs2 == hi
        && load(ld_cur, MicroOp::Lw, cur, curp, 0)
        && li_tau.op == MicroOp::Addi
        && li_tau.rs1 == 0
        && shift(sh_th, th, 8)
        && dec.op == MicroOp::Nmdec
        && dec.rd == cur
        && dec.rs1 == cur
        && dec.rs2 == tau
        && load(ld_vu, MicroOp::Lw, lo, vup, 0)
        && st_cur.op == MicroOp::Sw
        && st_cur.rs1 == curp
        && st_cur.rs2 == cur
        && st_cur.imm == 0
        && sum.op == MicroOp::Add
        && sum.rd == hi
        && reads(sum, cur, th)
        && mv(mv1, cur, vup)
        && nmpn(pn1)
        && load(ld_vu2, MicroOp::Lw, lo, vup, 0)
        && mv(mv_flag, flag, cur)
        && mv(mv2, cur, vup)
        && nmpn(pn2)
        && bump(b_cur, curp, 4)
        && or_flag.op == MicroOp::Or
        && or_flag.rd == flag
        && reads(or_flag, flag, cur)
        && bump(b_par, par, 8)
        && bump(b_thp, thp, 2)
        && skip.op == MicroOp::Beq
        && reads(skip, flag, 0)
        && skip.imm as u32 == exit - 4 * NPU_TAIL as u32
        && bump(inc, idx, 1)
        && bump(b_vup, vup, 4)
        && back.op == MicroOp::Bne
        && reads(back, idx, end)
        && back.imm as u32 == entry
        && distinct(&[par, thp, curp, vup, lo, hi, th, cur, tau, flag, idx, end]);
    ok.then_some(NativeShape::NpuNeuron {
        par,
        thp,
        curp,
        vup,
        lo,
        hi,
        th,
        cur,
        tau,
        tau_imm: li_tau.imm,
        flag,
        idx,
        end,
    })
}

/// [`NativeShape::CsrScatter`], the engine's sparse phase-A walk:
/// `lh w,2(cur); lhu tgt,0(cur); slli w,w,8; slli tgt,tgt,2;
/// add tgt,tgt,base; lw acc,0(tgt); addi cur,cur,4; add acc,acc,w;
/// sw acc,0(tgt); bne cur,end,entry`.
fn match_csr_scatter(trace: &[PreInst], entry: u32) -> Option<NativeShape> {
    let [ld_w, ld_t, sh_w, sh_t, add_b, ld_a, b_cur, add_w, st, back] = trace else {
        return None;
    };
    let (w, cur) = (ld_w.rd, ld_w.rs1);
    let tgt = ld_t.rd;
    let base = if add_b.rs1 == tgt {
        add_b.rs2
    } else {
        add_b.rs1
    };
    let acc = ld_a.rd;
    let end = if back.rs1 == cur { back.rs2 } else { back.rs1 };
    let ok = ld_w.op == MicroOp::Lh
        && ld_w.imm == 2
        && ld_t.op == MicroOp::Lhu
        && ld_t.rs1 == cur
        && ld_t.imm == 0
        && shift(sh_w, w, 8)
        && shift(sh_t, tgt, 2)
        && add_b.op == MicroOp::Add
        && add_b.rd == tgt
        && reads(add_b, tgt, base)
        && ld_a.op == MicroOp::Lw
        && ld_a.rs1 == tgt
        && ld_a.imm == 0
        && bump(b_cur, cur, 4)
        && add_w.op == MicroOp::Add
        && add_w.rd == acc
        && reads(add_w, acc, w)
        && st.op == MicroOp::Sw
        && st.rs1 == tgt
        && st.rs2 == acc
        && st.imm == 0
        && back.op == MicroOp::Bne
        && reads(back, cur, end)
        && back.imm as u32 == entry
        && distinct(&[cur, end, base, w, tgt, acc]);
    ok.then_some(NativeShape::CsrScatter {
        cur,
        end,
        base,
        w,
        tgt,
        acc,
    })
}

/// Audit and register the loop at `entry` as a kernel span.
///
/// Walks the decoded stream from `entry` until the first conditional
/// branch whose (pre-resolved, absolute) target is `entry` — the
/// back-edge, which becomes the span's final op (`exit` = its pc + 4).
/// Acceptance is purely structural (see the module docs); on success the
/// span is stored [`SpanState::Ready`] in the table carried by `code`.
/// Rejection leaves `code` unchanged apart from warmed decode slots and
/// only costs performance: the interpreter runs the loop as before.
pub fn register_kernel_span<M: CodeMem>(
    code: &mut CodeTable,
    mem: &M,
    entry: u32,
) -> Result<(), KernelReject> {
    if !entry.is_multiple_of(4) || entry >= code.sdram_limit() {
        return Err(KernelReject::OutOfWindow);
    }
    if code.kernels.spans.len() >= MAX_KERNEL_SPANS {
        return Err(KernelReject::TableFull);
    }
    if code.kernels.lookup(entry).is_some() {
        return Err(KernelReject::DuplicateEntry);
    }
    let mut trace: Vec<PreInst> = Vec::new();
    let mut fp = FNV_OFFSET;
    let mut pc = entry;
    loop {
        if trace.len() >= MAX_KERNEL_OPS {
            return Err(KernelReject::TooLong);
        }
        if pc >= code.sdram_limit() {
            return Err(KernelReject::OutOfWindow);
        }
        let word = mem.code_word(pc).ok_or(KernelReject::Undecodable)?;
        let pre = code.fetch(pc, mem);
        if pre.state != SlotState::Sdram {
            return Err(KernelReject::Undecodable);
        }
        if !batchable(&pre) {
            return Err(KernelReject::UnsupportedOp);
        }
        fp = fnv_word(fp, word);
        trace.push(pre);
        if is_branch(pre.op) {
            let target = pre.imm as u32;
            if target == entry {
                // The sole back-edge: the span ends after this op.
                pc += 4;
                break;
            }
            // Interior branches must jump strictly forward and stay
            // 4-aligned; the upper bound (within the span) is checked
            // against `exit` once the walk fixed it.
            if target <= pc || !target.is_multiple_of(4) {
                return Err(KernelReject::BadBranchTarget);
            }
        } else if pre.op == MicroOp::Jal {
            // `jal x0`: unconditional, so it can never be the back-edge
            // of a terminating loop — require a strictly forward in-span
            // target like any interior branch.
            let target = pre.imm as u32;
            if target <= pc || !target.is_multiple_of(4) {
                return Err(KernelReject::BadBranchTarget);
            }
        }
        pc += 4;
    }
    let exit = pc;
    if trace.len() < 2 {
        return Err(KernelReject::TooShort);
    }
    for (i, p) in trace.iter().enumerate() {
        let jumps = is_branch(p.op) || p.op == MicroOp::Jal;
        if i + 1 < trace.len() && jumps && (p.imm as u32) > exit {
            return Err(KernelReject::BadBranchTarget);
        }
    }
    let native = match_native(&trace, entry, exit);
    code.kernels.insert(KernelSpan {
        entry,
        exit,
        fp,
        state: SpanState::Ready,
        native,
        trace: trace.into_boxed_slice(),
    });
    Ok(())
}

/// Sign-extend the low half-word (`lh`'s result).
fn sext16(raw: u32) -> u32 {
    raw as u16 as i16 as i32 as u32
}

/// A guest byte range the native tier screened as a whole: which RAM
/// region it lies in and where it starts there.
#[derive(Debug, Clone, Copy)]
struct Sweep {
    base: u32,
    scratch: bool,
    off: usize,
}

impl Sweep {
    /// Screen `[base, base + bytes)` the way the per-op path screens each
    /// access in it: wholly inside the scratchpad or wholly inside SDRAM
    /// (so no access reaches MMIO or unmapped space), `base` a multiple of
    /// `align` (with strides that keep it, every access is naturally
    /// aligned), and for a `store` sweep, clear of the span's own code
    /// words — the per-op path ends the batch after such a store (stale
    /// trace); natively it would not.
    fn screen<C: ExecCtx>(
        ctx: &C,
        hdr: &KernelHeader,
        base: u32,
        bytes: u64,
        align: u32,
        store: bool,
    ) -> Option<Sweep> {
        if !base.is_multiple_of(align) {
            return None;
        }
        let scr = base.wrapping_sub(layout::SCRATCH_BASE);
        let scratch = scr < ctx.scratch_size();
        let (off, size) = if scratch {
            (scr, ctx.scratch_size())
        } else {
            (base, ctx.sdram_size())
        };
        let fits = u64::from(off) + bytes <= u64::from(size);
        let into_code = store
            && !scratch
            && u64::from(base) < u64::from(hdr.exit)
            && u64::from(hdr.entry) < u64::from(base) + bytes;
        (fits && !into_code).then_some(Sweep {
            base,
            scratch,
            off: off as usize,
        })
    }

    /// Load at byte `at` of the sweep (zero-extended, as the context
    /// returns it).
    #[inline(always)]
    fn load<C: ExecCtx>(self, ctx: &C, at: usize, op: LoadOp) -> u32 {
        let v = if self.scratch {
            ctx.read_scratch(self.off + at, op)
        } else {
            ctx.read_sdram(self.off + at, op)
        };
        debug_assert!(v.is_some(), "screened native load failed");
        v.unwrap_or(0)
    }

    /// Store a word at byte `at` of the sweep, then run the store-to-code
    /// guard, as `Core::store` does.
    #[inline(always)]
    fn store<C: ExecCtx>(self, ctx: &mut C, at: usize, value: u32) {
        let ok = if self.scratch {
            ctx.write_scratch(self.off + at, value, StoreOp::Sw)
        } else {
            ctx.write_sdram(self.off + at, value, StoreOp::Sw)
        };
        debug_assert!(ok, "screened native store failed");
        ctx.invalidate_store(self.base.wrapping_add(at as u32));
    }
}

impl Core {
    /// Attempt to run the kernel span at `self.pc` as one batch. Returns
    /// `Ok(true)` if at least one op retired (the caller re-enters its
    /// scheduling loop), `Ok(false)` to fall through to the superblock and
    /// single-step paths, and the trap of an op that faulted inside the
    /// batch. Only instantiated by the relaxed interpreters.
    #[inline]
    pub(crate) fn try_kernel<T: Timing, C: ExecCtx>(
        &mut self,
        ctx: &mut C,
        stop: u64,
    ) -> Result<bool, TrapCause> {
        debug_assert!(!T::EXACT);
        let Some(hdr) = ctx.kernel_match(self.pc) else {
            return Ok(false);
        };
        self.kernel_enter::<T, C>(ctx, hdr, stop)
    }

    /// Out-of-line entry: state check / re-verification and the two tiers
    /// (kept off the per-op dispatch path, which only pays the entry-pc
    /// probe above).
    fn kernel_enter<T: Timing, C: ExecCtx>(
        &mut self,
        ctx: &mut C,
        hdr: KernelHeader,
        stop: u64,
    ) -> Result<bool, TrapCause> {
        match hdr.state {
            SpanState::Rejected => return Ok(false),
            SpanState::Ready => {}
            SpanState::Dirty => {
                // A store landed inside the span (or it crossed a run
                // boundary): the decoded trace is only exact if the raw
                // words still hash to the registration fingerprint.
                let mut fp = FNV_OFFSET;
                let mut pc = hdr.entry;
                while pc < hdr.exit {
                    let Some(word) = ctx.code_word(pc) else {
                        ctx.kernel_set_state(hdr.idx, SpanState::Rejected);
                        return Ok(false);
                    };
                    fp = fnv_word(fp, word);
                    pc += 4;
                }
                if fp != hdr.fp {
                    ctx.kernel_set_state(hdr.idx, SpanState::Rejected);
                    return Ok(false);
                }
                ctx.kernel_set_state(hdr.idx, SpanState::Ready);
            }
        }
        // Native tier first: a matched shape runs as straight host code
        // for as many iterations as it can prove, and hands the rest of
        // the dispatch (if any) to the generic tier, which takes the span
        // op by op. (A Dirty span that just re-verified hashes to the
        // registration words, so the registration-time match is still
        // exact.)
        let mut ran = false;
        if let Some(shape) = hdr.native {
            let (done, native_ran) = self.kernel_native::<T, C>(ctx, &hdr, shape, stop);
            if done {
                return Ok(native_ran);
            }
            ran = native_ran;
        }
        self.kernel_batch::<T, C>(ctx, &hdr, stop)
            .map(|batched| batched | ran)
    }

    /// Iterations the generic tier admits from the current state when
    /// each one takes a path of `path` = (cycles, ops): it starts an
    /// iteration only while the whole trace's `full` = (cost, length)
    /// still fits under `stop` and under the armed fault trigger.
    fn admitted(&self, stop: u64, full: (u64, u64), path: (u64, u64)) -> u64 {
        let fits = |room: Option<u64>, step: u64| room.map_or(0, |r| (r / step).saturating_add(1));
        let by_clock = fits(
            stop.checked_sub(self.time)
                .and_then(|r| r.checked_sub(full.0)),
            path.0,
        );
        let by_fault = self.fault.map_or(u64::MAX, |(at, _)| {
            fits(
                at.checked_sub(self.counters.instret)
                    .and_then(|r| r.checked_sub(full.1)),
                path.1,
            )
        });
        by_clock.min(by_fault)
    }

    /// Closed-form execution of a matched [`NativeShape`] span.
    ///
    /// Bounds the batch at `k` iterations — the guest loop's own trip
    /// count and the iterations the generic tier would admit under the
    /// quantum bound and the armed fault trigger (`admitted`, charging
    /// each native iteration its own path) — screens the whole `k`-wide
    /// sweeps up front ([`Sweep::screen`]), then runs whole iterations as
    /// host code in guest access order, through the same op definitions
    /// the interpreter calls. An executor stops before an iteration it
    /// cannot prove (an NPU neuron that would spike, a scatter target
    /// that fails its screen) with nothing of that iteration committed.
    /// The architectural end state — registers, `nmregs`, memory,
    /// counters, clock, `pc` — is bit-identical to the same iterations
    /// interpreted. Returns whether the native tier covered the whole
    /// dispatch (otherwise the generic tier runs the rest) and whether
    /// any op retired.
    fn kernel_native<T: Timing, C: ExecCtx>(
        &mut self,
        ctx: &mut C,
        hdr: &KernelHeader,
        shape: NativeShape,
        stop: u64,
    ) -> (bool, bool) {
        let (full, path) = {
            let trace = ctx.kernel_trace(hdr.idx);
            let cost = |ops: &[PreInst]| ops.iter().map(|p| T::op_cost(p.op)).sum::<u64>();
            let skipped = shape.skipped(trace.len());
            let full = (cost(trace), trace.len() as u64);
            let skip = (cost(&trace[skipped.clone()]), skipped.len() as u64);
            (full, (full.0 - skip.0, full.1 - skip.1))
        };
        let iters = shape.trip_count(&self.regs);
        let k = iters.min(self.admitted(stop, full, path));
        if k == 0 {
            // The generic tier would break at its entry conditions too.
            return (true, false);
        }
        let run = match shape {
            NativeShape::DenseAxpy { pw, pi, w, s, cnt } => {
                self.native_dense_axpy(ctx, hdr, [pw, pi, w, s, cnt].map(usize::from), k)
            }
            NativeShape::NpuNeuron {
                par,
                thp,
                curp,
                vup,
                lo,
                hi,
                th,
                cur,
                tau,
                tau_imm,
                flag,
                idx,
                end: _,
            } => {
                let roles = [par, thp, curp, vup, lo, hi, th, cur, tau, flag, idx];
                self.native_npu_neuron(ctx, hdr, roles.map(usize::from), tau_imm as u32, k)
            }
            NativeShape::CsrScatter {
                cur,
                end: _,
                base,
                w,
                tgt,
                acc,
            } => self.native_csr_scatter(ctx, hdr, [cur, base, w, tgt, acc].map(usize::from), k),
        };
        let Some(n) = run else {
            return (false, false);
        };
        if n > 0 {
            self.time += path.0 * n;
            self.counters.instret += path.1 * n;
            self.kernel_instret += path.1 * n;
            self.native_instret += path.1 * n;
            self.prev_stall_dest = NO_DEST;
            // n == iters: the back-edge fell through; otherwise the batch
            // stopped at an iteration boundary, pc back on the entry.
            self.pc = if n == iters { hdr.exit } else { hdr.entry };
        }
        (n == k, n > 0)
    }

    /// [`NativeShape::DenseAxpy`]: `k` iterations, or `None` when a sweep
    /// fails its screen.
    fn native_dense_axpy<C: ExecCtx>(
        &mut self,
        ctx: &mut C,
        hdr: &KernelHeader,
        [pw, pi, w, s, cnt]: [usize; 5],
        k: u64,
    ) -> Option<u64> {
        let weights = Sweep::screen(ctx, hdr, self.regs[pw], 2 * k, 2, false)?;
        let accs = Sweep::screen(ctx, hdr, self.regs[pi], 4 * k, 4, true)?;
        let (mut last_w, mut last_s) = (0, 0);
        for n in 0..k as usize {
            // Guest order — lh, lw, sw — so overlapping sweeps behave
            // identically.
            last_w = sext16(weights.load(ctx, 2 * n, LoadOp::Lh)) << 8;
            last_s = accs.load(ctx, 4 * n, LoadOp::Lw).wrapping_add(last_w);
            accs.store(ctx, 4 * n, last_s);
        }
        self.regs[w] = last_w;
        self.regs[s] = last_s;
        self.regs[pw] = self.regs[pw].wrapping_add((2 * k) as u32);
        self.regs[pi] = self.regs[pi].wrapping_add((4 * k) as u32);
        self.regs[cnt] = self.regs[cnt].wrapping_sub(k as u32);
        self.counters.loads += 2 * k;
        self.counters.stores += k;
        self.counters.branches += k;
        Some(k)
    }

    /// [`NativeShape::NpuNeuron`]: up to `k` iterations, stopping before
    /// the first neuron that would spike, or `None` when a sweep fails
    /// its screen. `NpUnit::update` is pure, so a spike is known before
    /// anything of its iteration commits. The sweeps may overlap: every
    /// load of an iteration precedes its stores in the guest too, except
    /// the reload of the VU word the first `nmpn` just stored, whose value
    /// is that store's; iterations run one after the other from memory.
    fn native_npu_neuron<C: ExecCtx>(
        &mut self,
        ctx: &mut C,
        hdr: &KernelHeader,
        [par, thp, curp, vup, lo, hi, th, cur, tau, flag, idx]: [usize; 11],
        tau_val: u32,
        k: u64,
    ) -> Option<u64> {
        let params = Sweep::screen(ctx, hdr, self.regs[par], 8 * k, 4, false)?;
        let drive = Sweep::screen(ctx, hdr, self.regs[thp], 2 * k, 2, false)?;
        let currents = Sweep::screen(ctx, hdr, self.regs[curp], 4 * k, 4, true)?;
        let vus = Sweep::screen(ctx, hdr, self.regs[vup], 4 * k, 4, true)?;
        let mut nm = self.nmregs;
        let (mut last_vu, mut last_drive, mut last_th) = (0, 0, 0);
        let mut n = 0u64;
        while n < k {
            let i = n as usize;
            let mut next = nm;
            next.exec_nmldl(
                params.load(ctx, 8 * i, LoadOp::Lw),
                params.load(ctx, 8 * i + 4, LoadOp::Lw),
            );
            let th_val = sext16(drive.load(ctx, 2 * i, LoadOp::Lh)) << 8;
            let decayed = Dcu::exec_nmdec(&next, currents.load(ctx, 4 * i, LoadOp::Lw), tau_val);
            let vu = vus.load(ctx, 4 * i, LoadOp::Lw);
            let total = decayed.wrapping_add(th_val);
            let isyn = Q15_16::from_raw(total as i32);
            let half1 = NpUnit::update(&next, vu, isyn);
            let half2 = NpUnit::update(&next, half1.vu, isyn);
            if half1.spike || half2.spike {
                // The generic tier runs this neuron; its export defers at
                // the spike-log store.
                break;
            }
            currents.store(ctx, 4 * i, decayed);
            vus.store(ctx, 4 * i, half1.vu);
            vus.store(ctx, 4 * i, half2.vu);
            nm = next;
            (last_vu, last_drive, last_th) = (half1.vu, total, th_val);
            n += 1;
        }
        if n > 0 {
            self.nmregs = nm;
            // The reload after the first half-step left its VU word in
            // `lo`; both spike flags were clear.
            self.regs[lo] = last_vu;
            self.regs[hi] = last_drive;
            self.regs[th] = last_th;
            self.regs[cur] = 0;
            self.regs[flag] = 0;
            self.regs[tau] = tau_val;
            for (reg, stride) in [(par, 8), (thp, 2), (curp, 4), (vup, 4), (idx, 1)] {
                self.regs[reg] = self.regs[reg].wrapping_add((stride * n) as u32);
            }
            self.counters.loads += 6 * n;
            self.counters.stores += 3 * n;
            self.counters.branches += 2 * n;
            self.counters.nmldl += n;
            self.counters.nmdec += n;
            self.counters.nmpn += 2 * n;
        }
        Some(n)
    }

    /// [`NativeShape::CsrScatter`]: up to `k` iterations, stopping before
    /// the first edge whose target fails its screen, or `None` when the
    /// edge sweep fails its screen. Edge words are read per iteration, so
    /// a scatter store into the edge sweep is seen as the guest sees it.
    fn native_csr_scatter<C: ExecCtx>(
        &mut self,
        ctx: &mut C,
        hdr: &KernelHeader,
        [cur, base, w, tgt, acc]: [usize; 5],
        k: u64,
    ) -> Option<u64> {
        let edges = Sweep::screen(ctx, hdr, self.regs[cur], 4 * k, 2, false)?;
        let base_addr = self.regs[base];
        let (mut last_w, mut last_addr, mut last_acc) = (0, 0, 0);
        let mut n = 0u64;
        while n < k {
            let e = 4 * n as usize;
            let weight = sext16(edges.load(ctx, e + 2, LoadOp::Lh)) << 8;
            let addr = base_addr.wrapping_add(edges.load(ctx, e, LoadOp::Lhu) << 2);
            let Some(slot) = Sweep::screen(ctx, hdr, addr, 4, 4, true) else {
                break;
            };
            let sum = slot.load(ctx, 0, LoadOp::Lw).wrapping_add(weight);
            slot.store(ctx, 0, sum);
            (last_w, last_addr, last_acc) = (weight, addr, sum);
            n += 1;
        }
        if n > 0 {
            self.regs[w] = last_w;
            self.regs[tgt] = last_addr;
            self.regs[acc] = last_acc;
            self.regs[cur] = self.regs[cur].wrapping_add((4 * n) as u32);
            self.counters.loads += 3 * n;
            self.counters.stores += n;
            self.counters.branches += n;
        }
        Some(n)
    }

    /// The generic tier: copy the trace (`exec_op` needs the context
    /// mutably) and run it through the interpreter's
    /// own [`Core::exec_op`] in superblock mode, following the next pc each
    /// op returns, one loop iteration at a time. An iteration starts only
    /// under `try_superblock`'s hoisted bounds (its whole cost below
    /// `stop`, its whole length below the fault trigger). The batch ends
    ///
    /// * at `exit`, or any pc outside the span;
    /// * on [`BlockExit::Defer`], with `pc` parked on the op that did not
    ///   retire;
    /// * after a [`BlockExit::StoreTail`] op (the trace is stale from the
    ///   next op on);
    /// * at the back-edge once the span is no longer `Ready` — a store
    ///   landed in a word that already ran this iteration;
    /// * with the trap of a faulting op, exactly as in `exec_block`.
    fn kernel_batch<T: Timing, C: ExecCtx>(
        &mut self,
        ctx: &mut C,
        hdr: &KernelHeader,
        stop: u64,
    ) -> Result<bool, TrapCause> {
        let mut buf = [PreInst::EMPTY; MAX_KERNEL_OPS];
        let trace = {
            let span = ctx.kernel_trace(hdr.idx);
            buf[..span.len()].copy_from_slice(span);
            &buf[..span.len()]
        };
        debug_assert_eq!(trace.len() as u32, hdr.len);
        let full_cost: u64 = trace.iter().map(|p| T::op_cost(p.op)).sum();
        let full_len = trace.len() as u64;
        let fault_at = self.fault.map_or(u64::MAX, |(at, _)| at);
        // Clock and instret advance once per batch, as in `exec_block`:
        // no batchable op reads either.
        let mut dt = 0u64;
        let mut retired = 0u64;
        let mut pc = hdr.entry;
        let out = 'batch: loop {
            if self.time + dt + full_cost > stop
                || self.counters.instret + retired + full_len > fault_at
            {
                break Ok(());
            }
            loop {
                // `exit`, or any pc outside the span, ends the batch (the
                // audit keeps every in-span target word-aligned).
                let Some(pre) = trace.get((pc.wrapping_sub(hdr.entry) >> 2) as usize) else {
                    break 'batch Ok(());
                };
                let mut exit = BlockExit::None;
                let next =
                    match self.exec_op::<T, _, true>(ctx, pre, pc, hdr.entry, hdr.len, &mut exit) {
                        Ok(next) => next,
                        Err(cause) => break 'batch Err(cause),
                    };
                if exit == BlockExit::Defer {
                    break 'batch Ok(());
                }
                dt += T::op_cost(pre.op);
                retired += 1;
                pc = next;
                if exit == BlockExit::StoreTail {
                    break 'batch Ok(());
                }
                if pc == hdr.entry {
                    break;
                }
            }
            if ctx.kernel_state(hdr.idx) != SpanState::Ready {
                break Ok(());
            }
        };
        self.pc = pc;
        self.time += dt;
        self.counters.instret += retired;
        self.kernel_instret += retired;
        out.map(|()| retired > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MainMemory;
    use izhi_isa::encode;
    use izhi_isa::inst::{AluImmOp, BranchOp, Inst, StoreOp as IStoreOp};
    use izhi_isa::reg::Reg;

    const T0: Reg = Reg(5);
    const T1: Reg = Reg(6);
    const T2: Reg = Reg(7);

    /// Assemble `insts` at pc 0 and try to register a span at `entry`.
    fn try_register(insts: &[Inst], entry: u32) -> (CodeTable, Result<(), KernelReject>) {
        let mut mem = MainMemory::new(64 * 1024, 4096);
        let mut code = CodeTable::new(64 * 1024, 4096);
        for (i, inst) in insts.iter().enumerate() {
            mem.write_u32(4 * i as u32, encode(*inst));
        }
        code.preload(0, 4 * insts.len() as u32, &mem);
        let r = register_kernel_span(&mut code, &mem, entry);
        (code, r)
    }

    fn addi(rd: Reg, rs1: Reg, imm: i32) -> Inst {
        Inst::OpImm {
            op: AluImmOp::Addi,
            rd,
            rs1,
            imm,
        }
    }

    /// A store-and-count loop: sw t0,(t1); addi t1,t1,4; addi t0,t0,1;
    /// bne t0,t2,-12 (back to entry).
    fn counted_loop() -> Vec<Inst> {
        vec![
            Inst::Store {
                op: IStoreOp::Sw,
                rs1: T1,
                rs2: T0,
                imm: 0,
            },
            addi(T1, T1, 4),
            addi(T0, T0, 1),
            Inst::Branch {
                op: BranchOp::Ne,
                rs1: T0,
                rs2: T2,
                imm: -12,
            },
        ]
    }

    #[test]
    fn registers_a_counted_store_loop() {
        let (code, r) = try_register(&counted_loop(), 0);
        assert_eq!(r, Ok(()));
        let spans = code.kernel_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].entry, 0);
        assert_eq!(spans[0].exit, 16);
        assert_eq!(spans[0].state, SpanState::Ready);
        assert_eq!(spans[0].trace().len(), 4);
    }

    #[test]
    fn rejects_unsupported_ops_and_missing_back_edge() {
        // `jal` in the body.
        let mut body = counted_loop();
        body.insert(1, Inst::Jal { rd: Reg(1), imm: 8 });
        let (_, r) = try_register(&body, 0);
        assert_eq!(r, Err(KernelReject::UnsupportedOp));

        // Straight-line code ending in `ebreak`: no back-edge reachable.
        let line = vec![addi(T0, T0, 1), addi(T1, T1, 1), Inst::Ebreak];
        let (_, r) = try_register(&line, 0);
        assert_eq!(r, Err(KernelReject::UnsupportedOp));
    }

    #[test]
    fn accepts_forward_jal_x0_but_not_a_linking_jal() {
        // entry: addi; jal x0,+8 (skips the next addi); addi; bne -12.
        let diamond = |rd: Reg| {
            vec![
                addi(T0, T0, 1),
                Inst::Jal { rd, imm: 8 },
                addi(T1, T1, 1),
                Inst::Branch {
                    op: BranchOp::Ne,
                    rs1: T0,
                    rs2: T2,
                    imm: -12,
                },
            ]
        };
        let (code, r) = try_register(&diamond(Reg(0)), 0);
        assert_eq!(r, Ok(()));
        assert_eq!(code.kernel_spans()[0].exit, 16);
        let (_, r) = try_register(&diamond(Reg(1)), 0);
        assert_eq!(r, Err(KernelReject::UnsupportedOp));
    }

    #[test]
    fn rejects_interior_backward_branch() {
        // entry: addi; addi; beq t0,t0,-4 (backward but not to entry).
        let body = vec![
            addi(T0, T0, 1),
            addi(T1, T1, 1),
            Inst::Branch {
                op: BranchOp::Eq,
                rs1: T0,
                rs2: T0,
                imm: -4,
            },
        ];
        let (_, r) = try_register(&body, 0);
        assert_eq!(r, Err(KernelReject::BadBranchTarget));
    }

    #[test]
    fn rejects_duplicate_entry() {
        let (mut code, r) = try_register(&counted_loop(), 0);
        assert_eq!(r, Ok(()));
        let mut mem = MainMemory::new(64 * 1024, 4096);
        for (i, inst) in counted_loop().iter().enumerate() {
            mem.write_u32(4 * i as u32, encode(*inst));
        }
        let r2 = register_kernel_span(&mut code, &mem, 0);
        assert_eq!(r2, Err(KernelReject::DuplicateEntry));
    }

    #[test]
    fn store_into_span_marks_it_dirty() {
        let (mut code, r) = try_register(&counted_loop(), 0);
        assert_eq!(r, Ok(()));
        // The cover is the span itself: a store above it misses.
        assert!(!code.kernels.note_store(layout::SCRATCH_BASE));
        // A store outside the span leaves it Ready.
        code.invalidate_store(64);
        assert_eq!(code.kernel_spans()[0].state, SpanState::Ready);
        // A store into the span marks it Dirty.
        code.invalidate_store(8);
        assert_eq!(code.kernel_spans()[0].state, SpanState::Dirty);
    }

    #[test]
    fn take_and_adopt_round_trip_marks_spans_dirty() {
        let (mut code, r) = try_register(&counted_loop(), 0);
        assert_eq!(r, Ok(()));
        let spans = code.take_kernel_spans();
        assert_eq!(spans.len(), 1);
        assert!(code.kernel_spans().is_empty());
        let mut fresh = CodeTable::new(64 * 1024, 4096);
        fresh.adopt_kernel_spans(spans);
        assert_eq!(fresh.kernel_spans()[0].state, SpanState::Dirty);
        // The covering range survives the adoption: a store into the span
        // still reaches it (idempotently — it is already Dirty).
        fresh.invalidate_store(4);
        assert_eq!(fresh.kernel_spans()[0].state, SpanState::Dirty);
    }
}
