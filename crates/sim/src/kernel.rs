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
//!   runs as straight host code with a closed-form end state, whenever its
//!   up-front screens pass;
//! * **generic** — every other batch is the interpreter itself: the copied
//!   trace runs through `Core::exec_op` in superblock mode, following the
//!   next pc each op returns. No op's semantics are written twice.
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
//! form and hands anything it cannot prove to the generic tier.
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
//! to the entry — the sole back-edge. This covers all four emitted loop
//! shapes (dense/sparse phase A, NPU and base-fixed phase B) and is immune
//! to assembler relaxation or peephole drift; anything else is rejected,
//! which only costs performance. The FNV-1a fingerprint over the raw code
//! words makes spans self-verifying after a guest store into the span
//! ([`SpanState::Dirty`]): if the words still hash to the fingerprint the
//! decoded trace is still exact, otherwise the span is rejected for good
//! and the interpreter (which re-decodes through the ordinary
//! store-invalidation path) takes over.

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

    /// Copy span `idx`'s trace into `buf`; returns the length copied.
    #[inline]
    pub fn copy_trace(&self, idx: u8, buf: &mut [PreInst]) -> usize {
        let t = &self.spans[idx as usize].trace;
        buf[..t.len()].copy_from_slice(t);
        t.len()
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

/// Structural match of a decoded body against the dense phase-A scatter
/// shape (see [`NativeShape::DenseAxpy`]). Register roles are extracted
/// from the micro-ops; immediates (strides 2/4, shift 8, decrement -1)
/// must match exactly. All five roles must be distinct and non-zero so
/// the closed-form end state is well defined. Any mismatch just means
/// "no native tier" — the generic tier still runs the span.
fn match_native(trace: &[PreInst], entry: u32) -> Option<NativeShape> {
    let [lh, lw, sll, add, sw, apw, api, acnt, bne] = trace else {
        return None;
    };
    // lh w, 0(pw)
    if lh.op != MicroOp::Lh || lh.imm != 0 {
        return None;
    }
    let (w, pw) = (lh.rd, lh.rs1);
    // lw s, 0(pi)
    if lw.op != MicroOp::Lw || lw.imm != 0 {
        return None;
    }
    let (s, pi) = (lw.rd, lw.rs1);
    // slli w, w, 8
    if sll.op != MicroOp::Slli || sll.rd != w || sll.rs1 != w || sll.imm & 0x1F != 8 {
        return None;
    }
    // add s, s, w (either operand order)
    if add.op != MicroOp::Add
        || add.rd != s
        || !((add.rs1 == s && add.rs2 == w) || (add.rs1 == w && add.rs2 == s))
    {
        return None;
    }
    // sw s, 0(pi)
    if sw.op != MicroOp::Sw || sw.rs1 != pi || sw.rs2 != s || sw.imm != 0 {
        return None;
    }
    // addi pw, pw, 2 ; addi pi, pi, 4 ; addi cnt, cnt, -1
    if apw.op != MicroOp::Addi || apw.rd != pw || apw.rs1 != pw || apw.imm != 2 {
        return None;
    }
    if api.op != MicroOp::Addi || api.rd != pi || api.rs1 != pi || api.imm != 4 {
        return None;
    }
    if acnt.op != MicroOp::Addi || acnt.rd != acnt.rs1 || acnt.imm != -1 {
        return None;
    }
    let cnt = acnt.rd;
    // bne cnt, x0, entry (imm is the pre-resolved absolute target)
    if bne.op != MicroOp::Bne || bne.rs1 != cnt || bne.rs2 != 0 || bne.imm as u32 != entry {
        return None;
    }
    let roles = [pw, pi, w, s, cnt];
    if roles.contains(&0) {
        return None;
    }
    for i in 0..roles.len() {
        if roles[i + 1..].contains(&roles[i]) {
            return None;
        }
    }
    Some(NativeShape::DenseAxpy { pw, pi, w, s, cnt })
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
    let native = match_native(&trace, entry);
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

    /// Out-of-line entry: state check / re-verification, trace copy and
    /// the two tiers (kept off the per-op dispatch path, which only pays
    /// the entry-pc probe above).
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
        let mut buf = [PreInst::EMPTY; MAX_KERNEL_OPS];
        let len = ctx.kernel_copy(hdr.idx, &mut buf);
        debug_assert_eq!(len as u32, hdr.len);
        // Native tier first: a matched shape whose screens pass runs as
        // straight host code; otherwise the generic tier takes the span op
        // by op. (A Dirty span that just re-verified hashes to the
        // registration words, so the registration-time match is still
        // exact.)
        if let Some(shape) = hdr.native {
            if let Some(ran) = self.kernel_native::<T, C>(ctx, &hdr, &buf[..len], shape, stop) {
                return Ok(ran);
            }
        }
        self.kernel_batch::<T, C>(ctx, &hdr, &buf[..len], stop)
    }

    /// Closed-form execution of a matched [`NativeShape`] span.
    ///
    /// Computes the exact number of iterations `k` the generic tier
    /// would retire — bounded by the guest's own down-counter, the quantum
    /// budget and the armed fault trigger, using the *same* conservative
    /// per-iteration entry conditions — then screens the whole `k`-wide
    /// load and store sweeps up front (single RAM region each, natural
    /// alignment, store sweep clear of the span's own code words) and runs
    /// the arithmetic as a tight host loop. Every screened quantity the
    /// per-op path checks incrementally is checked here in closed form, so
    /// the architectural end state — registers, memory, counters, clock,
    /// `pc` — is bit-identical to `k` interpreted iterations. Returns
    /// `None` when any screen fails (the generic tier, which screens per
    /// op, takes over) or `Some(ran)` when the native tier owned the
    /// dispatch.
    fn kernel_native<T: Timing, C: ExecCtx>(
        &mut self,
        ctx: &mut C,
        hdr: &KernelHeader,
        trace: &[PreInst],
        shape: NativeShape,
        stop: u64,
    ) -> Option<bool> {
        let NativeShape::DenseAxpy { pw, pi, w, s, cnt } = shape;
        let (pw, pi, w, s, cnt) = (
            pw as usize,
            pi as usize,
            w as usize,
            s as usize,
            cnt as usize,
        );
        let full_cost: u64 = trace.iter().map(|p| T::op_cost(p.op)).sum();
        let full_len = trace.len() as u64;
        // Iteration i (0-based) is admitted by the generic tier iff
        // time + i*full_cost + full_cost <= stop and
        // instret + i*full_len + full_len <= fault_at.
        let k_budget = stop.saturating_sub(self.time) / full_cost;
        let k_fault = match self.fault {
            Some((at, _)) => at.saturating_sub(self.counters.instret) / full_len,
            None => u64::MAX,
        };
        let c = self.regs[cnt];
        // The back-edge makes the loop do-while: a zero counter wraps and
        // runs 2^32 iterations (the sweep screens below reject anything
        // that large, handing it to the generic tier).
        let iters: u64 = if c == 0 { 1 << 32 } else { u64::from(c) };
        let k = iters.min(k_budget).min(k_fault);
        if k == 0 {
            // The generic tier would break at its entry conditions too.
            return Some(false);
        }
        let w0 = self.regs[pw];
        let s0 = self.regs[pi];
        if !w0.is_multiple_of(2) || !s0.is_multiple_of(4) {
            return None;
        }
        let scratch_size = ctx.scratch_size() as u64;
        let sdram_size = ctx.sdram_size() as u64;
        // Load sweep [w0, w0 + 2k): wholly scratch or wholly SDRAM.
        let w_scr = w0.wrapping_sub(layout::SCRATCH_BASE);
        let w_in_scratch = u64::from(w_scr) < scratch_size;
        if w_in_scratch {
            if u64::from(w_scr) + 2 * k > scratch_size {
                return None;
            }
        } else if u64::from(w0) + 2 * k > sdram_size {
            return None;
        }
        // Store sweep [s0, s0 + 4k): same region rule, and in SDRAM it
        // must not overlap the span's own code — the per-op path ends the
        // batch after such a store (stale trace); natively it would not.
        let s_scr = s0.wrapping_sub(layout::SCRATCH_BASE);
        let s_in_scratch = u64::from(s_scr) < scratch_size;
        if s_in_scratch {
            if u64::from(s_scr) + 4 * k > scratch_size {
                return None;
            }
        } else {
            if u64::from(s0) + 4 * k > sdram_size {
                return None;
            }
            if u64::from(s0) < u64::from(hdr.exit) && u64::from(hdr.entry) < u64::from(s0) + 4 * k {
                return None;
            }
        }
        let mut w_off = (if w_in_scratch { w_scr } else { w0 }) as usize;
        let mut s_off = (if s_in_scratch { s_scr } else { s0 }) as usize;
        let mut s_addr = s0;
        let mut last_w = 0u32;
        let mut last_s = 0u32;
        for _ in 0..k {
            // Same per-iteration access order as the guest: lh, lw, sw —
            // so even overlapping sweeps behave identically.
            let raw_w = if w_in_scratch {
                ctx.read_scratch(w_off, LoadOp::Lh)
            } else {
                ctx.read_sdram(w_off, LoadOp::Lh)
            };
            let raw_s = if s_in_scratch {
                ctx.read_scratch(s_off, LoadOp::Lw)
            } else {
                ctx.read_sdram(s_off, LoadOp::Lw)
            };
            let (Some(raw_w), Some(raw_s)) = (raw_w, raw_s) else {
                debug_assert!(false, "screened native access failed");
                return None;
            };
            last_w = (raw_w as u16 as i16 as i32 as u32) << 8;
            last_s = raw_s.wrapping_add(last_w);
            let ok = if s_in_scratch {
                ctx.write_scratch(s_off, last_s, StoreOp::Sw)
            } else {
                ctx.write_sdram(s_off, last_s, StoreOp::Sw)
            };
            debug_assert!(ok, "screened native store failed");
            ctx.invalidate_store(s_addr);
            w_off += 2;
            s_off += 4;
            s_addr = s_addr.wrapping_add(4);
        }
        self.regs[w] = last_w;
        self.regs[s] = last_s;
        self.regs[pw] = w0.wrapping_add((2 * k) as u32);
        self.regs[pi] = s0.wrapping_add((4 * k) as u32);
        self.regs[cnt] = c.wrapping_sub(k as u32);
        self.time += full_cost * k;
        self.counters.instret += full_len * k;
        self.counters.loads += 2 * k;
        self.counters.stores += k;
        self.counters.branches += k;
        self.kernel_instret += full_len * k;
        self.prev_stall_dest = NO_DEST;
        // k == iters: the counter reached zero and the back-edge fell
        // through; otherwise the budget/fault bound stopped the batch at
        // an iteration boundary, pc back on the entry.
        self.pc = if k == iters { hdr.exit } else { hdr.entry };
        Some(true)
    }

    /// The generic tier: run the copied trace through the interpreter's
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
        trace: &[PreInst],
        stop: u64,
    ) -> Result<bool, TrapCause> {
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
