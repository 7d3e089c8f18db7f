//! Guest memory-map constants shared between the assembly generator and
//! the host-side image builder.
//!
//! The split mirrors the paper's DE10 system (§VI): hot per-neuron state in
//! on-chip memory, bulk tables (weights, precomputed thalamic noise) in
//! SDRAM behind the D-cache, code in SDRAM behind the I-cache.

/// Scratchpad base (on-chip, single-cycle).
pub const SCRATCH: u32 = 0x1000_0000;

/// VU words (packed v/u, 4 B per neuron) — scratchpad.
pub const VU: u32 = SCRATCH;
/// Synaptic currents (Q15.16, 4 B per neuron) — scratchpad.
pub const ISYN: u32 = SCRATCH + 0x4000;
/// Quantised parameter table (rs1, rs2 word pair per neuron) — scratchpad.
pub const PARAMS: u32 = SCRATCH + 0x8000;
/// Spike lists: two parities × up to 8 cores × 1024 u16 entries.
pub const SPIKE_LISTS: u32 = SCRATCH + 0x1_0000;
/// Bytes per core segment in a spike list.
pub const SPIKE_SEG: u32 = 0x800;
/// Per-parity stride (8 core segments).
pub const SPIKE_PARITY_STRIDE: u32 = SPIKE_SEG * 8;
/// Spike counts: two parities × 8 cores × u32.
pub const SPIKE_COUNTS: u32 = SCRATCH + 0x1_8000;
/// Soft-float state arrays (f32 v, u, isyn) — scratchpad.
pub const F32_V: u32 = SCRATCH + 0x2_0000;
/// Soft-float u array.
pub const F32_U: u32 = SCRATCH + 0x2_4000;
/// Soft-float isyn array.
pub const F32_ISYN: u32 = SCRATCH + 0x2_8000;
/// Soft-float parameter table (a, b, c, d as f32, 16 B per neuron).
pub const F32_PARAMS: u32 = SCRATCH + 0x2_C000;

/// Weight matrix, row-major by presynaptic neuron, i16 Q7.8 — SDRAM.
pub const WEIGHTS: u32 = 0x0020_0000;
/// Weight matrix as f32 (soft-float variant) — SDRAM.
pub const WEIGHTS_F32: u32 = 0x0060_0000;
/// Thalamic-noise table `[tick][neuron]`, i16 Q7.8 — SDRAM.
pub const NOISE: u32 = 0x00A0_0000;
/// Thalamic-noise table as f32 (soft-float variant) — SDRAM.
pub const NOISE_F32: u32 = 0x00D0_0000;
/// Sparse-connectivity row pointers, one `(N+1)`-entry u32 table per core
/// (`ROWPTR + core*(N+1)*4 + j*4`) — SDRAM.
pub const ROWPTR: u32 = 0x00F8_0000;
/// Sparse edges `(target u16, weight i16 Q7.8)` grouped by (core, pre) —
/// SDRAM.
pub const EDGES: u32 = 0x0100_0000;
/// f32 edge weights parallel to [`EDGES`] (soft-float variant) — SDRAM.
pub const EDGES_F32: u32 = 0x0180_0000;

/// Number of noise-table rows that fit the fixed-point window; the guest
/// cycles the table with `t mod NOISE_TICKS`, so long runs reuse the noise
/// stream periodically.
pub fn noise_period(n: usize, ticks: u32) -> u32 {
    let cap = (NOISE_F32 - NOISE) / (2 * n as u32);
    ticks.min(cap).max(1)
}

/// Same for the f32 mirror used by the soft-float variant (smaller window).
pub fn noise_period_f32(n: usize, ticks: u32) -> u32 {
    let cap = (ROWPTR - NOISE_F32) / (4 * n as u32);
    ticks.min(cap).max(1)
}

/// Largest population whose dense weight tables fit the standard map.
/// Every dense image writes its Q7.8 matrix (2 B per weight) at
/// [`WEIGHTS`]; the soft-float variant adds the f32 mirror (4 B per
/// weight) at [`WEIGHTS_F32`]. Each table must end where the next
/// written region starts: the mirror if there is one, else [`NOISE`].
pub fn max_dense_n(soft_float: bool) -> usize {
    let fit = |base: u32, end: u32, bytes: u32| (((end - base) / bytes) as usize).isqrt();
    if soft_float {
        fit(WEIGHTS, WEIGHTS_F32, 2).min(fit(WEIGHTS_F32, NOISE, 4))
    } else {
        fit(WEIGHTS, NOISE, 2)
    }
}

/// MMIO block base and registers (mirrors `izhi_sim::mem::layout`).
pub const MMIO: u32 = 0xF000_0000;
/// Core-id register.
pub const MMIO_COREID: u32 = MMIO + 0x04;
/// Barrier register.
pub const MMIO_BARRIER: u32 = MMIO + 0x10;
/// Halt register.
pub const MMIO_HALT: u32 = MMIO + 0x18;
/// Spike-log FIFO.
pub const MMIO_SPIKE_LOG: u32 = MMIO + 0x1C;
/// ROI control.
pub const MMIO_ROI: u32 = MMIO + 0x24;
/// Stimulus-injection port (write tick, read events until `-1`).
pub const MMIO_STIM: u32 = MMIO + 0x2C;

/// Scratchpad top for the standard layout (stacks grow down from here).
pub const STACK_TOP: u32 = SCRATCH + 0x4_0000;

fn align4k(x: u32) -> u32 {
    (x + 0xFFF) & !0xFFF
}

/// A resolved guest memory map for one engine shape.
///
/// [`Layout::standard`] reproduces the historical constants above exactly
/// — every pre-existing scenario keeps byte-identical tables and code.
/// [`Layout::for_shape`] switches to a recomputed **scaled** map when the
/// shape outgrows the standard one (more than 4096 neurons, more than 8
/// cores, or more than 1024 neurons per core): scratch regions are
/// restacked for the actual `n`, the spike list/count tables grow to a
/// power-of-two core-slot count up to 64, and the SDRAM map drops the
/// dense weight matrix (scaled shapes are sparse-only — a dense 10k²
/// table would not fit any plausible SDRAM) in favour of a large CSR
/// edge region. All strides stay powers of two so the engine's shift-based
/// addressing keeps working; the `*_shift` fields feed the generated
/// assembly directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Core slots in the spike list/count tables (power of two, ≥ cores).
    pub core_slots: u32,
    /// VU array base.
    pub vu: u32,
    /// Synaptic-current array base.
    pub isyn: u32,
    /// Quantised parameter table base.
    pub params: u32,
    /// Spike-list table base (two parities × `core_slots` segments).
    pub spike_lists: u32,
    /// Bytes per core segment in a spike list (power of two).
    pub spike_seg: u32,
    /// `log2(spike_seg)` — segment addressing shift in the assembly.
    pub spike_seg_shift: u32,
    /// Per-parity spike-list stride (`spike_seg * core_slots`).
    pub spike_parity_stride: u32,
    /// Spike-count table base (two parities × `core_slots` u32 counts).
    pub spike_counts: u32,
    /// `log2(core_slots * 4)` — count-table parity shift in the assembly.
    pub count_parity_shift: u32,
    /// Last-spike-tick array base (STDP; one u32 per neuron, `-1` =
    /// never). In the standard layout this overlays the f32 V region —
    /// plasticity is fixed-point-only, so the soft-float arrays are free.
    pub last_spike: u32,
    /// Soft-float f32 state array bases (meaningless for scaled layouts,
    /// which are fixed-point-only; they then all point past `last_spike`).
    pub f32_v: u32,
    /// Soft-float u array.
    pub f32_u: u32,
    /// Soft-float isyn array.
    pub f32_isyn: u32,
    /// Soft-float parameter table.
    pub f32_params: u32,
    /// Scratchpad top: per-core stacks grow down from here.
    pub stack_top: u32,
    /// `log2(bytes per core stack)`.
    pub stack_shift: u32,
    /// Scratchpad bytes this layout needs.
    pub scratch_size: u32,
    /// Dense weight matrix base (scaled layouts: zero-size region).
    pub weights: u32,
    /// Dense f32 weight matrix base.
    pub weights_f32: u32,
    /// Thalamic-noise table base.
    pub noise: u32,
    /// f32 noise mirror base (also the end of the fixed-point window).
    pub noise_f32: u32,
    /// Sparse row-pointer table base.
    pub rowptr: u32,
    /// Sparse edge-word region base.
    pub edges: u32,
    /// f32 edge-weight mirror base (also the fixed-point edge cap).
    pub edges_f32: u32,
    /// SDRAM bytes this layout needs (0 = fits any configured size).
    pub sdram_size: u32,
}

impl Layout {
    /// The historical fixed memory map (shapes up to 4096 neurons, 8
    /// cores, 1024 neurons per core).
    pub fn standard() -> Self {
        Layout {
            core_slots: 8,
            vu: VU,
            isyn: ISYN,
            params: PARAMS,
            spike_lists: SPIKE_LISTS,
            spike_seg: SPIKE_SEG,
            spike_seg_shift: SPIKE_SEG.trailing_zeros(),
            spike_parity_stride: SPIKE_PARITY_STRIDE,
            spike_counts: SPIKE_COUNTS,
            count_parity_shift: 5, // 8 slots × 4 B
            last_spike: F32_V,
            f32_v: F32_V,
            f32_u: F32_U,
            f32_isyn: F32_ISYN,
            f32_params: F32_PARAMS,
            stack_top: STACK_TOP,
            stack_shift: 13, // 8 KiB per core
            scratch_size: STACK_TOP - SCRATCH,
            weights: WEIGHTS,
            weights_f32: WEIGHTS_F32,
            noise: NOISE,
            noise_f32: NOISE_F32,
            rowptr: ROWPTR,
            edges: EDGES,
            edges_f32: EDGES_F32,
            sdram_size: 0,
        }
    }

    /// Whether a shape fits the standard map.
    pub fn fits_standard(n: usize, n_cores: u32, chunk: usize) -> bool {
        n <= 4096 && n_cores <= 8 && chunk <= 1024
    }

    /// Resolve the layout for a shape: standard when it fits, scaled
    /// (sparse-only, fixed-point-only) otherwise.
    pub fn for_shape(n: usize, ticks: u32, n_cores: u32, chunk: usize) -> Self {
        if Self::fits_standard(n, n_cores, chunk) {
            return Self::standard();
        }
        assert!(n <= 65535, "neuron indices are 16-bit ({n} neurons)");
        assert!(n_cores <= 64, "spike tables scale to at most 64 cores");
        let core_slots = n_cores.next_power_of_two();
        let n32 = n as u32;
        // Scratch: restack the hot per-neuron regions for the actual n.
        let vu = SCRATCH;
        let isyn = vu + align4k(4 * n32);
        let params = isyn + align4k(4 * n32);
        let spike_lists = params + align4k(8 * n32);
        let spike_seg = (2 * chunk as u32).next_power_of_two().max(SPIKE_SEG);
        let spike_parity_stride = spike_seg * core_slots;
        let spike_counts = spike_lists + 2 * spike_parity_stride;
        let last_spike = spike_counts + align4k(2 * core_slots * 4);
        let regions_end = last_spike + align4k(4 * n32);
        // Fixed-point-only: the f32 arrays collapse to zero-size markers.
        let stack_shift = 12; // 4 KiB per core — the kernels barely stack
        let scratch_size = {
            let want = regions_end - SCRATCH + (core_slots << stack_shift);
            (want + 0xFFFF) & !0xFFFF
        };
        // SDRAM: no dense weights; a large CSR region instead. The noise
        // window covers up to 4096 distinct rows (the guest hashes the
        // tick into the window, so longer runs reuse rows aperiodically).
        let noise = WEIGHTS;
        let noise_rows = ticks.clamp(1, 4096);
        let noise_f32 = noise + align4k(2 * n32 * noise_rows);
        let rowptr = noise_f32;
        let edges = rowptr + align4k(n_cores * (n32 + 1) * 4);
        Layout {
            core_slots,
            vu,
            isyn,
            params,
            spike_lists,
            spike_seg,
            spike_seg_shift: spike_seg.trailing_zeros(),
            spike_parity_stride,
            spike_counts,
            count_parity_shift: (core_slots * 4).trailing_zeros(),
            last_spike,
            f32_v: regions_end,
            f32_u: regions_end,
            f32_isyn: regions_end,
            f32_params: regions_end,
            stack_top: SCRATCH + scratch_size,
            stack_shift,
            scratch_size,
            weights: noise,     // zero-size: dense weights are not laid out
            weights_f32: noise, // zero-size
            noise,
            noise_f32,
            rowptr,
            edges,
            edges_f32: u32::MAX, // no f32 mirror; edge cap is the SDRAM end
            sdram_size: edges,   // plus edges — the caller sizes for its edge count
        }
    }

    /// True when this is a scaled (recomputed) map.
    pub fn is_scaled(&self) -> bool {
        self.vu != VU || self.spike_counts != SPIKE_COUNTS || self.edges != EDGES
    }

    /// Fixed-point noise-window rows for this layout (the guest cycles
    /// the table with a hashed `t mod NOISE_TICKS`).
    pub fn noise_rows(&self, n: usize, ticks: u32) -> u32 {
        let cap = (self.noise_f32 - self.noise) / (2 * n as u32);
        ticks.min(cap).max(1)
    }

    /// f32 noise-window rows (soft-float mirror; 1 for scaled layouts,
    /// which never run soft-float).
    pub fn noise_rows_f32(&self, n: usize, ticks: u32) -> u32 {
        let cap = (self.rowptr - self.noise_f32) / (4 * n as u32);
        ticks.min(cap).max(1)
    }

    /// Exclusive upper bound for the fixed-point edge region, given the
    /// SDRAM size actually configured.
    pub fn edge_cap(&self, sdram_size: u32) -> u32 {
        self.edges_f32.min(sdram_size)
    }
}

/// Emit the `.equ` prelude encoding a resolved layout for the assembler.
pub fn equ_prelude_for(lay: &Layout, n: usize, ticks: u32, n_cores: u32, tau: u32) -> String {
    format!(
        "\
        .equ N, {n}\n\
        .equ TICKS, {ticks}\n\
        .equ NCORES, {n_cores}\n\
        .equ TAU, {tau}\n\
        .equ VU, {vu:#x}\n\
        .equ ISYN, {isyn:#x}\n\
        .equ PARAMS, {params:#x}\n\
        .equ SPIKE_LISTS, {spike_lists:#x}\n\
        .equ SPIKE_SEG, {spike_seg:#x}\n\
        .equ SPIKE_PARITY_STRIDE, {spike_parity_stride:#x}\n\
        .equ SPIKE_COUNTS, {spike_counts:#x}\n\
        .equ LAST_SPIKE, {last_spike:#x}\n\
        .equ F32_V, {f32_v:#x}\n\
        .equ F32_U, {f32_u:#x}\n\
        .equ F32_ISYN, {f32_isyn:#x}\n\
        .equ F32_PARAMS, {f32_params:#x}\n\
        .equ WEIGHTS, {weights:#x}\n\
        .equ WEIGHTS_F32, {weights_f32:#x}\n\
        .equ NOISE, {noise:#x}\n\
        .equ NOISE_F32, {noise_f32:#x}\n\
        .equ ROWPTR, {rowptr:#x}\n\
        .equ EDGES, {edges:#x}\n\
        .equ MMIO_COREID, {MMIO_COREID:#x}\n\
        .equ MMIO_BARRIER, {MMIO_BARRIER:#x}\n\
        .equ MMIO_HALT, {MMIO_HALT:#x}\n\
        .equ MMIO_SPIKE_LOG, {MMIO_SPIKE_LOG:#x}\n\
        .equ MMIO_ROI, {MMIO_ROI:#x}\n\
        .equ MMIO_STIM, {MMIO_STIM:#x}\n\
        {edges_f32_equ}",
        vu = lay.vu,
        isyn = lay.isyn,
        params = lay.params,
        spike_lists = lay.spike_lists,
        spike_seg = lay.spike_seg,
        spike_parity_stride = lay.spike_parity_stride,
        spike_counts = lay.spike_counts,
        last_spike = lay.last_spike,
        f32_v = lay.f32_v,
        f32_u = lay.f32_u,
        f32_isyn = lay.f32_isyn,
        f32_params = lay.f32_params,
        weights = lay.weights,
        weights_f32 = lay.weights_f32,
        noise = lay.noise,
        noise_f32 = lay.noise_f32,
        rowptr = lay.rowptr,
        edges = lay.edges,
        // Scaled layouts have no f32 edge mirror (the sentinel is not a
        // valid `li` operand); only soft-float code references the symbol
        // and soft-float never runs scaled.
        edges_f32_equ = if lay.edges_f32 == u32::MAX {
            String::new()
        } else {
            format!(".equ EDGES_F32, {:#x}\n", lay.edges_f32)
        },
    )
}

/// Emit the `.equ` prelude for the standard layout (compatibility shim).
pub fn equ_prelude(n: usize, ticks: u32, n_cores: u32, tau: u32) -> String {
    equ_prelude_for(&Layout::standard(), n, ticks, n_cores, tau)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        // Scratch regions for the maximum supported network (1024 neurons).
        let n = 1024u32;
        assert!(VU + 4 * n <= ISYN);
        assert!(ISYN + 4 * n <= PARAMS);
        assert!(PARAMS + 8 * n <= SPIKE_LISTS);
        const { assert!(SPIKE_LISTS + 2 * SPIKE_PARITY_STRIDE <= SPIKE_COUNTS) };
        const { assert!(SPIKE_COUNTS + 2 * 8 * 4 <= F32_V) };
        assert!(F32_V + 4 * n <= F32_U);
        assert!(F32_U + 4 * n <= F32_ISYN);
        assert!(F32_ISYN + 4 * n <= F32_PARAMS);
        // SDRAM tables for 1024 neurons and 1500 ticks.
        assert!(WEIGHTS + 2 * n * n <= WEIGHTS_F32);
        assert!(WEIGHTS_F32 + 4 * n * n <= NOISE);
        assert!(NOISE + 2 * n * 1500 <= NOISE_F32);
        // f32 noise mirrors are only built for short soft-float runs.
        assert!(NOISE_F32 + 4 * n * 600 <= ROWPTR);
        assert!(ROWPTR + 8 * (n + 1) * 4 <= EDGES);
        // Sparse tables hold up to 2M edges (dense 1024^2 allowed).
        assert!(EDGES + 4 * n * n <= EDGES_F32);
    }

    #[test]
    fn prelude_assembles() {
        let src = format!(
            "{}\nli a0, VU\nli a1, NOISE_F32\nebreak",
            equ_prelude(1000, 1000, 2, 2)
        );
        let prog = izhi_isa::Assembler::new().assemble(&src).unwrap();
        assert!(prog.size() > 0);
    }

    #[test]
    fn mmio_constants_match_sim() {
        use izhi_sim::mem::layout as sl;
        assert_eq!(MMIO, sl::MMIO_BASE);
        assert_eq!(MMIO_COREID, sl::MMIO_BASE + sl::MMIO_COREID);
        assert_eq!(MMIO_BARRIER, sl::MMIO_BASE + sl::MMIO_BARRIER);
        assert_eq!(MMIO_HALT, sl::MMIO_BASE + sl::MMIO_HALT);
        assert_eq!(MMIO_SPIKE_LOG, sl::MMIO_BASE + sl::MMIO_SPIKE_LOG);
        assert_eq!(MMIO_ROI, sl::MMIO_BASE + sl::MMIO_ROI);
        assert_eq!(MMIO_STIM, sl::MMIO_BASE + sl::MMIO_STIM);
        assert_eq!(SCRATCH, sl::SCRATCH_BASE);
    }

    #[test]
    fn standard_layout_reproduces_the_historical_constants() {
        let lay = Layout::standard();
        assert_eq!(lay.vu, VU);
        assert_eq!(lay.isyn, ISYN);
        assert_eq!(lay.params, PARAMS);
        assert_eq!(lay.spike_lists, SPIKE_LISTS);
        assert_eq!(lay.spike_seg, SPIKE_SEG);
        assert_eq!(lay.spike_seg_shift, 11);
        assert_eq!(lay.spike_parity_stride, SPIKE_PARITY_STRIDE);
        assert_eq!(lay.spike_counts, SPIKE_COUNTS);
        assert_eq!(lay.count_parity_shift, 5);
        assert_eq!(lay.stack_top, 0x1004_0000);
        assert_eq!(lay.stack_shift, 13);
        assert_eq!(
            (lay.weights, lay.noise, lay.rowptr),
            (WEIGHTS, NOISE, ROWPTR)
        );
        assert_eq!((lay.edges, lay.edges_f32), (EDGES, EDGES_F32));
        assert!(!lay.is_scaled());
        // Shapes inside the historical bounds resolve to it.
        assert_eq!(Layout::for_shape(4096, 1500, 8, 512), lay);
        assert_eq!(Layout::for_shape(1000, 1000, 2, 500), lay);
        // Shapes outside any bound go scaled.
        assert!(Layout::for_shape(10240, 200, 16, 640).is_scaled());
        assert!(Layout::for_shape(2000, 200, 16, 125).is_scaled());
        assert!(Layout::for_shape(5000, 200, 4, 1250).is_scaled());
    }

    #[test]
    fn scaled_layout_regions_do_not_overlap() {
        for (n, ticks, cores) in [
            (10240usize, 200u32, 16u32),
            (20000, 1000, 64),
            (2000, 50, 16),
        ] {
            let chunk = n.div_ceil(cores as usize);
            let lay = Layout::for_shape(n, ticks, cores, chunk);
            let n32 = n as u32;
            assert!(lay.core_slots >= cores && lay.core_slots.is_power_of_two());
            assert!(lay.vu + 4 * n32 <= lay.isyn);
            assert!(lay.isyn + 4 * n32 <= lay.params);
            assert!(lay.params + 8 * n32 <= lay.spike_lists);
            assert!(2 * chunk as u32 <= lay.spike_seg, "chunk fits a segment");
            assert_eq!(lay.spike_seg, 1 << lay.spike_seg_shift);
            assert_eq!(lay.spike_parity_stride, lay.spike_seg * lay.core_slots);
            assert!(lay.spike_lists + 2 * lay.spike_parity_stride <= lay.spike_counts);
            assert_eq!(1u32 << lay.count_parity_shift, lay.core_slots * 4);
            assert!(lay.spike_counts + 2 * lay.core_slots * 4 <= lay.last_spike);
            assert!(lay.last_spike + 4 * n32 <= lay.f32_v);
            // Stacks fit between the last region and the scratch top.
            assert!(lay.f32_v + (lay.core_slots << lay.stack_shift) <= lay.stack_top);
            assert_eq!(lay.stack_top, SCRATCH + lay.scratch_size);
            // SDRAM: noise window, rowptr tables and edges are disjoint.
            assert!(lay.noise >= 0x20_0000, "code region preserved");
            assert!(lay.noise + 2 * n32 * lay.noise_rows(n, ticks) <= lay.rowptr);
            assert!(lay.rowptr + cores * (n32 + 1) * 4 <= lay.edges);
            assert!(lay.sdram_size >= lay.edges);
        }
    }

    #[test]
    fn scaled_prelude_assembles() {
        let lay = Layout::for_shape(10240, 200, 16, 640);
        let src = format!(
            "{}\nli a0, VU\nli a1, LAST_SPIKE\nli a2, EDGES\nli a3, MMIO_STIM\nebreak",
            equ_prelude_for(&lay, 10240, 200, 16, 2)
        );
        let prog = izhi_isa::Assembler::new().assemble(&src).unwrap();
        assert!(prog.size() > 0);
    }
}
