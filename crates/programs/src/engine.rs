//! The parameterised guest SNN engine.
//!
//! One assembly skeleton, three arithmetic variants for the per-neuron
//! update (phase B):
//!
//! * [`Variant::Npu`] — the paper's flow (Listing 1): `nmldl` per neuron,
//!   one `nmdec` for the synaptic decay, two `nmpn` half-steps;
//! * [`Variant::BaseFixed`] — the same fixed-point math in base RV32IM
//!   instructions (the "19 operations" of §II-C);
//! * [`Variant::SoftFloat`] — IEEE-754 single precision through the
//!   [`crate::softfloat`] library (the §VI-C baseline).
//!
//! Every tick has two phases: phase A scatters the previous tick's spikes
//! into the synaptic-current array (row-major weight walk), phase B
//! updates each neuron in the core's range, appends spikes to a per-core
//! list (double-buffered by tick parity) and logs them to the MMIO spike
//! FIFO. A hardware barrier separates the ticks: the coupled engine
//! synchronises once at start-up and once per tick, the uncoupled sweep
//! engine only at start-up. Work is partitioned across cores in
//! contiguous chunks.

use std::fmt::Write as _;
use std::sync::Mutex;

use izhi_core::dcu::SHIFT_TABLES;
use izhi_core::params::FixedIzhParams;
use izhi_fixed::Q7_8;
use izhi_isa::asm::Assembler;
use izhi_sim::{
    register_kernel_span, CodeTable, MainMemory, Metrics, OpClass, PerfCounters, SimError, System,
    SystemConfig,
};
use izhi_snn::analysis::SpikeRaster;
use izhi_snn::network::Network;
use izhi_snn::noise::{Jump, XorShift32};

use crate::layout;
use crate::softfloat::FADD_FMUL_ASM;

/// Arithmetic variant of the neuron-update kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Custom neuromorphic instructions (NPU + DCU).
    Npu,
    /// Base-ISA fixed point (no custom instructions).
    BaseFixed,
    /// Soft-float single precision.
    SoftFloat,
}

/// Engine build/run configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Neuron count (≤ 1024 per core chunk).
    pub n: usize,
    /// Number of 1 ms ticks to simulate.
    pub ticks: u32,
    /// Core count.
    pub n_cores: u32,
    /// DCU τ selector (1..9).
    pub tau: u32,
    /// Pin-voltage bit (Sudoku uses it).
    pub pin: bool,
    /// Kernel variant.
    pub variant: Variant,
    /// Use sparse (CSR) spike propagation instead of dense weight rows.
    /// The right choice for the Sudoku network (4 % density); the 80-20
    /// network is fully connected and uses the dense walk.
    pub sparse: bool,
    /// Emit the hazard-aware instruction schedule (default). When false,
    /// the NPU kernel uses the naive ordering where every load/nm result
    /// is consumed immediately — the regime the paper measured (§VI-B
    /// reports 0.7-9 % hazard stalls and proposes CSR writeback to cut
    /// them).
    pub scheduled: bool,
    /// Couple the cores each tick (default). When false, every core's
    /// chunk is treated as an independent sub-population: phase A reads
    /// only the core's *own* previous-tick spike list and the per-tick
    /// barriers are dropped (only the start-up barrier remains). Only
    /// correct for block-diagonal weight matrices partitioned on the chunk
    /// boundaries — the sweep workloads are built exactly that way.
    pub coupled: bool,
    /// STDP plasticity: synaptic weights evolve during the run via a
    /// delivery-time nearest-neighbour rule in the sparse phase-A walk
    /// (requires `sparse` and [`Variant::Npu`]). Plastic runs read the
    /// final weight table back and report it as
    /// [`WorkloadResult::weight_hash`].
    pub plastic: bool,
    /// Emit the per-tick stimulus drain: each core queries the MMIO
    /// stimulus port between phases A and B and adds a fixed current to
    /// every injected neuron it owns. The *schedule* itself travels on
    /// [`SystemConfig::stim`] (seed data, not shape data) — the drain
    /// code is emitted whenever this flag is set, so one template serves
    /// every seed's plan, including empty ones.
    pub stim: bool,
    /// System configuration template (clock, caches, bus).
    pub system: SystemConfig,
}

impl EngineConfig {
    /// Sensible defaults for a given workload size.
    pub fn new(n: usize, ticks: u32, n_cores: u32, variant: Variant) -> Self {
        let mut system = SystemConfig::with_cores(n_cores);
        system.sdram_size = 32 * 1024 * 1024;
        EngineConfig {
            n,
            ticks,
            n_cores,
            tau: 2,
            pin: false,
            variant,
            sparse: false,
            scheduled: true,
            coupled: true,
            plastic: false,
            stim: false,
            system,
        }
    }

    /// Neurons per core (the last core may get fewer).
    pub fn chunk(&self) -> usize {
        self.n.div_ceil(self.n_cores as usize)
    }

    /// The guest memory map this shape resolves to (standard or scaled).
    pub fn layout(&self) -> layout::Layout {
        layout::Layout::for_shape(self.n, self.ticks, self.n_cores, self.chunk())
    }

    /// Grow the system's memory sizes to what the resolved layout needs
    /// (plus `extra_edge_words` CSR edge words past the edge-region base).
    /// Call after changing the shape; a no-op for standard shapes that
    /// already fit the defaults.
    pub fn fit_memory(&mut self, extra_edge_words: usize) {
        let lay = self.layout();
        self.system.scratch_size = self.system.scratch_size.max(lay.scratch_size);
        let edges_end = lay
            .edges
            .saturating_add(4 * extra_edge_words as u32)
            .max(lay.sdram_size);
        // Round up to a MiB so template cache keys stay tidy.
        let need = (edges_end + 0xF_FFFF) & !0xF_FFFF;
        self.system.sdram_size = self.system.sdram_size.max(need);
    }

    /// Whether `self` and `other` build the same run: every field that
    /// shapes the image or the generated engine, and the assembler
    /// relaxation that decides which program is assembled from it. The
    /// per-run knobs in [`EngineConfig::system`] (scheduler, faults, wall
    /// limit, …) may differ.
    pub fn same_build(&self, other: &EngineConfig) -> bool {
        self.n == other.n
            && self.ticks == other.ticks
            && self.n_cores == other.n_cores
            && self.tau == other.tau
            && self.pin == other.pin
            && self.variant == other.variant
            && self.sparse == other.sparse
            && self.scheduled == other.scheduled
            && self.coupled == other.coupled
            && self.plastic == other.plastic
            && self.stim == other.stim
            && self.system.asm_relax == other.system.asm_relax
    }
}

/// Stimulus current added per injected event, Q15.16 (64.0 — enough to
/// drive a resting RS neuron to threshold within a couple of ticks).
pub const STIM_CURRENT_Q15_16: u32 = 64 << 16;

/// STDP potentiation per delivery, Q7.8 (~+0.004 per pre→post event).
pub const STDP_A_PLUS: i32 = 1;
/// STDP depression per post-before-pre delivery, Q7.8.
pub const STDP_A_MINUS: i32 = 3;
/// Nearest-neighbour LTD window: a delivery within this many ticks after
/// the target's last spike depresses instead of potentiating.
pub const STDP_WINDOW: u32 = 8;
/// Upper weight clamp, Q7.8 (32.0 — far above any generated initial
/// weight, so the clamp bounds drift without crushing the network).
pub const STDP_WMAX: i32 = 8192;
/// Lower weight clamp, Q7.8 (−32.0).
pub const STDP_WMIN: i32 = -8192;

/// The guest-memory spans a load wrote: `(address, length)` pairs in
/// write order.
///
/// [`GuestImage::load_into_mem`] records one for the program's data
/// tables; [`prepare_run`] records one for the program segments. Together
/// they name every byte a run touches before execution, which is what
/// lets a [run template](crate::template) replay a build into a fresh
/// memory as a handful of bulk copies — the seed-invariant spans come
/// from the snapshot, the seed-dependent ones are re-patched from a
/// rebuilt image — instead of re-assembling and re-serialising anything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatchMap {
    spans: Vec<(u32, u32)>,
}

impl PatchMap {
    /// Record one written span.
    pub fn record(&mut self, addr: u32, len: usize) {
        if len > 0 {
            self.spans.push((addr, len as u32));
        }
    }

    /// The recorded `(address, length)` spans, in write order.
    pub fn spans(&self) -> &[(u32, u32)] {
        &self.spans
    }

    /// Total bytes covered.
    pub fn bytes(&self) -> u64 {
        self.spans.iter().map(|&(_, l)| l as u64).sum()
    }

    /// Copy every recorded span from `src` into `dst`, slice to slice.
    pub fn replay(&self, src: &MainMemory, dst: &mut MainMemory) {
        for &(addr, len) in &self.spans {
            let bytes = src
                .span(addr, len as usize)
                .expect("patch span outside source memory");
            assert!(
                dst.write_bytes(addr, bytes),
                "patch span outside destination memory"
            );
        }
    }
}

/// Quantised CSR connectivity for images too big for a dense matrix:
/// row-major by presynaptic neuron, zero-quantized edges dropped. The
/// canonical source for the per-core CSR tables when present.
#[derive(Debug, Clone)]
pub struct CsrWeights {
    /// Row pointers (len n+1) over `targets`/`weights_q`.
    pub row_ptr: Vec<u32>,
    /// Postsynaptic indices, sorted within each row.
    pub targets: Vec<u32>,
    /// Q7.8 weights parallel to `targets`.
    pub weights_q: Vec<i16>,
}

/// Host-built memory image for a workload.
#[derive(Debug, Clone)]
pub struct GuestImage {
    /// Quantised per-neuron parameters.
    pub params: Vec<FixedIzhParams>,
    /// Row-major Q7.8 weights (N×N); empty for CSR-native images.
    pub weights_q: Vec<i16>,
    /// Quantised CSR connectivity (large sparse images; replaces the
    /// dense matrix as the CSR-table source and skips the dense upload).
    pub csr: Option<CsrWeights>,
    /// Premixed thalamic drive `[tick][neuron]`, Q7.8 (bias + noise).
    pub noise_q: Vec<i16>,
    /// Initial VU words.
    pub init_vu: Vec<u32>,
    n: usize,
    ticks: u32,
}

impl GuestImage {
    /// Build from a network plus per-neuron bias and noise descriptors.
    /// The noise stream is drawn host-side — the paper precomputes thalamic
    /// inputs as well (Listing 1 reads them from memory).
    pub fn from_network(
        net: &Network,
        bias: &[f64],
        noise_std: &[f64],
        ticks: u32,
        seed: u32,
    ) -> Self {
        Self::from_network_scheduled(net, bias, noise_std, &[], ticks, seed)
    }

    /// Like [`GuestImage::from_network`], with a cyclic per-tick noise
    /// amplitude schedule (annealing cycles for the WTA search; empty =
    /// constant amplitude 1).
    pub fn from_network_scheduled(
        net: &Network,
        bias: &[f64],
        noise_std: &[f64],
        schedule: &[f64],
        ticks: u32,
        seed: u32,
    ) -> Self {
        let n = net.len();
        assert_eq!(bias.len(), n);
        assert_eq!(noise_std.len(), n);
        let rows = layout::noise_period(n, ticks) as usize;
        let (mut image, noise_q) = beside_noise(bias, noise_std, schedule, rows, seed, || {
            Self::quantised(net, ticks)
        });
        image.noise_q = noise_q;
        image
    }

    /// Build a CSR-native image: no dense weight matrix is materialised
    /// (a 10k-neuron dense table would dwarf both host memory and the
    /// guest SDRAM map), the network's CSR rows are quantised directly.
    /// `lay` must be the layout the run resolves to — the noise window is
    /// sized from it.
    pub fn from_network_csr(
        net: &Network,
        bias: &[f64],
        noise_std: &[f64],
        ticks: u32,
        seed: u32,
        lay: &layout::Layout,
    ) -> Self {
        let n = net.len();
        assert_eq!(bias.len(), n);
        assert_eq!(noise_std.len(), n);
        let rows = lay.noise_rows(n, ticks) as usize;
        let (mut image, noise_q) = beside_noise(bias, noise_std, &[], rows, seed, || {
            Self::quantised_csr(net, ticks)
        });
        image.noise_q = noise_q;
        image
    }

    /// `net`'s quantised parameters, initial state and dense row-major
    /// Q7.8 weight matrix, for a run of `ticks`. The noise table is left
    /// empty: draw it with [`beside_noise`] and store it in
    /// [`GuestImage::noise_q`] before loading.
    pub(crate) fn quantised(net: &Network, ticks: u32) -> Self {
        let n = net.len();
        let mut weights_q = vec![0i16; n * n];
        for (pre, row) in weights_q.chunks_mut(n.max(1)).enumerate() {
            for (post, w) in net.out_edges(pre) {
                row[post as usize] = Q7_8::from_f64(w).raw();
            }
        }
        GuestImage {
            params: net.quantized_params(),
            weights_q,
            csr: None,
            noise_q: Vec::new(),
            init_vu: init_vu(net),
            n,
            ticks,
        }
    }

    /// [`GuestImage::quantised`] with CSR connectivity instead of the
    /// dense matrix: one pass over the edges, dropping those whose weight
    /// quantises to zero. The noise table is left empty.
    pub(crate) fn quantised_csr(net: &Network, ticks: u32) -> Self {
        let n = net.len();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut targets = vec![0u32; net.n_synapses()];
        let mut weights_q = vec![0i16; net.n_synapses()];
        let mut kept = 0;
        row_ptr.push(0u32);
        for span in net.row_ptr.windows(2) {
            let (lo, hi) = (span[0] as usize, span[1] as usize);
            for (&post, &w) in net.targets[lo..hi].iter().zip(&net.weights[lo..hi]) {
                let q = Q7_8::from_f64(w).raw();
                targets[kept] = post;
                weights_q[kept] = q;
                kept += usize::from(q != 0);
            }
            row_ptr.push(kept as u32);
        }
        targets.truncate(kept);
        weights_q.truncate(kept);
        GuestImage {
            params: net.quantized_params(),
            weights_q: Vec::new(),
            csr: Some(CsrWeights {
                row_ptr,
                targets,
                weights_q,
            }),
            noise_q: Vec::new(),
            init_vu: init_vu(net),
            n,
            ticks,
        }
    }

    /// Write all tables into simulator memory. The big arrays (weights,
    /// noise, CSR edges) are serialised straight into their guest-memory
    /// spans, one pass each — at paper scale the seed's per-element
    /// `write_u16` loop was a visible slice of total workload wall time.
    pub fn load_into(&self, sys: &mut System, cfg: &EngineConfig) {
        let mut patches = PatchMap::default();
        self.load_into_mem(&mut sys.shared_mut().mem, cfg, &mut patches);
    }

    /// [`GuestImage::load_into`] against bare main memory, recording every
    /// written span into `patches`. This is the form the template cache
    /// uses: it needs the loaded bytes *and* the patch map (the spans a
    /// different-seed instantiation must re-patch) without a full
    /// [`System`] in hand.
    pub fn load_into_mem(&self, mem: &mut MainMemory, cfg: &EngineConfig, patches: &mut PatchMap) {
        let lay = cfg.layout();
        let variant = cfg.variant;
        for (i, p) in self.params.iter().enumerate() {
            let (rs1, rs2) = p.pack();
            mem.write_u32(lay.params + 8 * i as u32, rs1);
            mem.write_u32(lay.params + 8 * i as u32 + 4, rs2);
        }
        patches.record(lay.params, 8 * self.params.len());
        for (i, &vu) in self.init_vu.iter().enumerate() {
            mem.write_u32(lay.vu + 4 * i as u32, vu);
            mem.write_u32(lay.isyn + 4 * i as u32, 0);
        }
        patches.record(lay.vu, 4 * self.init_vu.len());
        patches.record(lay.isyn, 4 * self.init_vu.len());
        if !self.weights_q.is_empty() {
            assert!(
                !lay.is_scaled(),
                "scaled layouts have no dense weight region — build a CSR-native image"
            );
            put_i16s(mem, lay.weights, &self.weights_q);
            patches.record(lay.weights, 2 * self.weights_q.len());
        }
        // An image built for more ticks than this run's layout window holds
        // is truncated to the window — the guest indexes rows modulo
        // NOISE_TICKS, which never reaches past it.
        let window = (lay.noise_f32 - lay.noise) as usize / 2;
        let noise = &self.noise_q[..self.noise_q.len().min(window)];
        put_i16s(mem, lay.noise, noise);
        patches.record(lay.noise, 2 * noise.len());
        if cfg.plastic {
            // Last-spike ticks start "half a range ago": far outside any
            // plausible STDP window (so the first delivery to a silent
            // neuron potentiates), yet never wrapping into it.
            for i in 0..self.n {
                mem.write_u32(lay.last_spike + 4 * i as u32, 0x8000_0000);
            }
            patches.record(lay.last_spike, 4 * self.n);
        }
        if variant == Variant::SoftFloat {
            self.load_f32_mirrors(mem, patches);
        }
        if cfg.sparse {
            self.load_csr_tables(mem, cfg, &lay, patches);
        }
    }

    /// Build and load the per-core CSR spike-propagation tables: for every
    /// (owner core, presynaptic neuron) the row of `(target, weight)` pairs
    /// whose targets the core owns, core by core. The rows come from
    /// [`GuestImage::csr`] when present (large sparse images) and from a
    /// scan of the dense matrix otherwise — byte-identical tables either
    /// way. Each core's edge count is known up front (a histogram of the
    /// targets), so one pass over the rows writes every core's row
    /// pointers and edge words in place, straight into SDRAM.
    fn load_csr_tables(
        &self,
        mem: &mut MainMemory,
        cfg: &EngineConfig,
        lay: &layout::Layout,
        patches: &mut PatchMap,
    ) {
        let n = self.n;
        let chunk = cfg.chunk().max(1);
        let n_cores = cfg.n_cores as usize;
        let f32_mirror = cfg.variant == Variant::SoftFloat;
        assert!(
            self.csr.is_none() || !f32_mirror,
            "CSR-native images carry no f32 edge mirror"
        );
        // Core c owns targets c·chunk.., and its edges follow every lower
        // core's: the in-degree histogram summed per chunk gives each
        // core's first edge slot.
        let mut in_degree = vec![0u32; n];
        self.for_each_row(|_, targets, _| {
            for &t in targets {
                in_degree[t as usize] += 1;
            }
        });
        let mut owned = in_degree.chunks(chunk).map(|c| c.iter().sum::<u32>());
        let mut n_edges = 0;
        let mut cursor: Vec<u32> = (0..n_cores)
            .map(|_| {
                let first = n_edges;
                n_edges += owned.next().unwrap_or(0);
                first
            })
            .collect();
        assert!(
            lay.edges + 4 * n_edges <= lay.edge_cap(cfg.system.sdram_size),
            "sparse edge table overflow ({n_edges} edges) — call EngineConfig::fit_memory"
        );
        // Each target's owner core, looked up per edge instead of divided.
        let owner: Vec<u16> = (0..n).map(|t| (t / chunk) as u16).collect();
        let table_bytes = 4 * n_cores * (n + 1);
        let edge_bytes = 4 * n_edges as usize;
        let sdram = mem.sdram_bytes_mut();
        // Row pointers lie below the edges, the f32 mirror above them.
        let (low, high) = sdram.split_at_mut(lay.edges as usize);
        let row_ptrs = &mut low[lay.rowptr as usize..][..table_bytes];
        let (edges, above) = high.split_at_mut(edge_bytes);
        let mirror = if f32_mirror {
            &mut above[(lay.edges_f32 - lay.edges) as usize - edge_bytes..][..edge_bytes]
        } else {
            &mut []
        };
        let put = |table: &mut [u8], slot: usize, word: u32| {
            table[4 * slot..4 * slot + 4].copy_from_slice(&word.to_le_bytes());
        };
        let mut pass = |pre: usize, targets: &[u32], weights: &[i16]| {
            for (core, &at) in cursor.iter().enumerate() {
                put(row_ptrs, core * (n + 1) + pre, at);
            }
            for (&post, &w) in targets.iter().zip(weights) {
                let slot = &mut cursor[owner[post as usize] as usize];
                put(edges, *slot as usize, ((w as u16 as u32) << 16) | post);
                if f32_mirror {
                    let f = (Q7_8::from_raw(w).to_f64() as f32).to_bits();
                    put(mirror, *slot as usize, f);
                }
                *slot += 1;
            }
        };
        self.for_each_row(&mut pass);
        pass(n, &[], &[]);
        // The row-pointer tables are contiguous across cores.
        patches.record(lay.rowptr, table_bytes);
        patches.record(lay.edges, edge_bytes);
        if f32_mirror {
            patches.record(lay.edges_f32, edge_bytes);
        }
    }

    /// Call `f(pre, targets, weights)` for every presynaptic neuron in
    /// order, with its nonzero edges in target order: the rows of
    /// [`GuestImage::csr`] when present, else each dense row's nonzeros
    /// (gathered into one reused row buffer).
    fn for_each_row(&self, mut f: impl FnMut(usize, &[u32], &[i16])) {
        if let Some(csr) = &self.csr {
            for (pre, span) in csr.row_ptr.windows(2).enumerate() {
                let (lo, hi) = (span[0] as usize, span[1] as usize);
                f(pre, &csr.targets[lo..hi], &csr.weights_q[lo..hi]);
            }
        } else {
            let (mut targets, mut weights) = (Vec::new(), Vec::new());
            for (pre, row) in self.weights_q.chunks(self.n.max(1)).enumerate() {
                targets.clear();
                weights.clear();
                for (post, &w) in row.iter().enumerate() {
                    if w != 0 {
                        targets.push(post as u32);
                        weights.push(w);
                    }
                }
                f(pre, &targets, &weights);
            }
        }
    }

    /// f32 mirrors of every table for the soft-float variant.
    fn load_f32_mirrors(&self, mem: &mut MainMemory, patches: &mut PatchMap) {
        let n = self.n;
        for (i, p) in self.params.iter().enumerate() {
            let base = layout::F32_PARAMS + 16 * i as u32;
            mem.write_u32(base, (p.a.to_f64() as f32).to_bits());
            mem.write_u32(base + 4, (p.b.to_f64() as f32).to_bits());
            mem.write_u32(base + 8, (p.c.to_f64() as f32).to_bits());
            mem.write_u32(base + 12, (p.d.to_f64() as f32).to_bits());
        }
        patches.record(layout::F32_PARAMS, 16 * self.params.len());
        for i in 0..n {
            let (v, u) = izhi_fixed::qformat::unpack_vu(self.init_vu[i]);
            mem.write_u32(layout::F32_V + 4 * i as u32, (v.to_f64() as f32).to_bits());
            mem.write_u32(layout::F32_U + 4 * i as u32, (u.to_f64() as f32).to_bits());
            mem.write_u32(layout::F32_ISYN + 4 * i as u32, 0.0f32.to_bits());
        }
        patches.record(layout::F32_V, 4 * n);
        patches.record(layout::F32_U, 4 * n);
        patches.record(layout::F32_ISYN, 4 * n);
        for (i, &w) in self.weights_q.iter().enumerate() {
            let f = (Q7_8::from_raw(w).to_f64() as f32).to_bits();
            mem.write_u32(layout::WEIGHTS_F32 + 4 * i as u32, f);
        }
        patches.record(layout::WEIGHTS_F32, 4 * self.weights_q.len());
        let f32_rows = layout::noise_period_f32(n, self.ticks) as usize;
        let mirrored = self.noise_q.len().min(f32_rows * n);
        for (i, &x) in self.noise_q.iter().take(mirrored).enumerate() {
            let f = (Q7_8::from_raw(x).to_f64() as f32).to_bits();
            mem.write_u32(layout::NOISE_F32 + 4 * i as u32, f);
        }
        patches.record(layout::NOISE_F32, 4 * mirrored);
    }

    /// The commutative weight hash of the image *as loaded*: the edge-word
    /// multiset [`load_csr_tables`](Self::load_into_mem) writes (each edge
    /// lands in exactly one core's table), hashed the way a plastic run
    /// hashes its final table. A plastic run whose
    /// [`WorkloadResult::weight_hash`] still equals this never updated a
    /// weight.
    pub fn initial_weight_hash(&self) -> u64 {
        let mut h: u64 = 0;
        self.for_each_row(|_, targets, weights| {
            for (&t, &w) in targets.iter().zip(weights) {
                h = h.wrapping_add(edge_word_fnv(((w as u16 as u32) << 16) | t));
            }
        });
        h
    }
}

/// Store `values` little-endian from guest address `addr` on, in one
/// pass straight into guest memory.
fn put_i16s(mem: &mut MainMemory, addr: u32, values: &[i16]) {
    let dst = mem
        .span_mut(addr, 2 * values.len())
        .expect("table outside guest memory");
    for (d, v) in dst.chunks_exact_mut(2).zip(values) {
        d.copy_from_slice(&v.to_le_bytes());
    }
}

/// Initial VU words: every neuron at rest (`v = c`, `u = b·c`).
fn init_vu(net: &Network) -> Vec<u32> {
    net.params
        .iter()
        .map(|p| {
            let v = Q7_8::from_f64(p.c);
            let u = Q7_8::from_f64(p.b * p.c);
            izhi_fixed::qformat::pack_vu(v, u)
        })
        .collect()
}

/// The fewest noise-table entries (about 3 ms of draws) worth a helper
/// thread: smaller tables are drawn on the calling thread alone.
const NOISE_MIN_PER_THREAD: usize = 1 << 16;

/// The fewest entries in one block of a noise table (whole rows, about
/// 0.3 ms of draws): small enough that the threads filling a table finish
/// within a block of each other.
const NOISE_BLOCK: usize = 1 << 13;

/// Run `build` on the calling thread while the `rows`-row premixed
/// thalamic drive is drawn beside it, and return both.
///
/// The drive is a table `[row][neuron]`, Q7.8: row `t` holds
/// `bias[i] + gain(t) · noise_std[i] · N(0, 1)`, the Gaussians drawn in
/// row-major order from one xorshift stream seeded with `seed`, and
/// `gain(t)` cycling through `schedule` (empty = constant 1). It depends
/// on nothing `build` makes, so a builder that draws and quantises its
/// network inside `build` overlaps that work with the Gaussians.
/// [`std::thread::available_parallelism`] minus one helper threads draw
/// the table from its start, and the calling thread joins them once
/// `build` returns, so no more threads run than there are CPUs (three
/// threads on two CPUs drew the 80-20 tables slower than two did); a
/// table too small to be worth a helper is drawn after `build` on the
/// calling thread. The table is the same at every thread count. It is
/// allocated on the calling thread, so a loop of builds reuses the
/// caller's freed memory instead of growing a helper thread's heap (which
/// raised `relaxed_sweep`'s peak RSS by about 12 MB).
pub(crate) fn beside_noise<T>(
    bias: &[f64],
    noise_std: &[f64],
    schedule: &[f64],
    rows: usize,
    seed: u32,
    build: impl FnOnce() -> T,
) -> (T, Vec<i16>) {
    let mut table = vec![0i16; rows * bias.len()];
    let helpers = if table.len() < NOISE_MIN_PER_THREAD {
        0
    } else {
        std::thread::available_parallelism().map_or(1, |p| p.get()) - 1
    };
    let block_rows = NOISE_BLOCK.div_ceil(bias.len().max(1));
    let built = fill_noise(
        &mut table, bias, noise_std, schedule, seed, helpers, block_rows, build,
    );
    (built, table)
}

/// Fill `table`, whole rows of `bias.len()` entries, with the drive
/// [`beside_noise`] describes, in blocks of `block_rows` rows: `helpers`
/// scoped threads take blocks in order from the start, and the calling
/// thread takes them too once `build` returns. Every Gaussian consumes
/// exactly two raw draws, so a block starts one [`Jump`] of twice its
/// length past the previous block's start, and the table is the same
/// whichever thread fills which block.
#[allow(clippy::too_many_arguments)]
fn fill_noise<T>(
    table: &mut [i16],
    bias: &[f64],
    noise_std: &[f64],
    schedule: &[f64],
    seed: u32,
    helpers: usize,
    block_rows: usize,
    build: impl FnOnce() -> T,
) -> T {
    let n = bias.len();
    assert_eq!(noise_std.len(), n);
    let block = (block_rows * n).max(1);
    let jump = Jump::new(2 * block as u64);
    let mut next_start = XorShift32::new(seed);
    let blocks = Mutex::new(table.chunks_mut(block).enumerate().map(|(k, out)| {
        let start = next_start;
        next_start.jump(&jump);
        (k * block_rows, start, out)
    }));
    let work = || loop {
        let Some((first_row, mut rng, out)) = blocks.lock().expect("noise blocks").next() else {
            return;
        };
        for (k, row) in out.chunks_mut(n).enumerate() {
            let gain = match schedule.len() {
                0 => 1.0,
                len => schedule[(first_row + k) % len],
            };
            for ((q, &b), &sd) in row.iter_mut().zip(bias).zip(noise_std) {
                *q = Q7_8::from_f64(b + gain * sd * rng.next_gaussian()).raw();
            }
        }
    };
    std::thread::scope(|s| {
        for _ in 0..helpers {
            s.spawn(work);
        }
        let built = build();
        work();
        built
    })
}

/// Result of running a workload on the simulator.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Spike raster reconstructed from the MMIO spike log.
    pub raster: SpikeRaster,
    /// Per-core ROI metrics.
    pub metrics: Vec<Metrics>,
    /// Per-core raw ROI counters.
    pub counters: Vec<PerfCounters>,
    /// Wall-clock cycles of the whole run (slowest core).
    pub cycles: u64,
    /// Total instructions retired.
    pub instret: u64,
    /// Simulated 1 ms ticks of the run (from the configuration, so
    /// per-tick rates can never be computed against a mismatched count).
    pub ticks: u32,
    /// Commutative hash of the final guest weight table — `Some` only for
    /// plastic (STDP) runs, which read the evolved edge words back. Built
    /// as a wrapping *sum* of per-edge FNV-1a terms, so it is independent
    /// of edge enumeration order, exactly like [`WorkloadResult::raster_hash`]
    /// is of spike commit order; compare across scheduling modes and
    /// against [`GuestImage::initial_weight_hash`] to prove the weights
    /// both evolved and evolved identically everywhere.
    pub weight_hash: Option<u64>,
}

/// FNV-1a of one little-endian edge word: the per-edge term of the
/// commutative weight hash.
fn edge_word_fnv(word: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl WorkloadResult {
    /// Execution time in seconds of the measured region (slowest core).
    pub fn exec_time_s(&self) -> f64 {
        self.metrics
            .iter()
            .map(|m| m.exec_time_s)
            .fold(0.0, f64::max)
    }

    /// Per-timestep execution time in milliseconds of wall clock.
    pub fn time_per_tick_ms(&self) -> f64 {
        self.exec_time_s() * 1000.0 / self.ticks as f64
    }

    /// Order-independent FNV-1a hash of the spike raster (the raster *as a
    /// set*): identical across scheduling modes whenever the physics are,
    /// regardless of within-tick commit order. The battery runner compares
    /// this across `Exact`/`Relaxed`/`RelaxedParallel` rows.
    pub fn raster_hash(&self) -> u64 {
        let mut spikes = self.raster.spikes.clone();
        spikes.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &(t, n) in &spikes {
            for b in t.to_le_bytes().into_iter().chain(n.to_le_bytes()) {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// Generate the full engine assembly for a configuration.
pub fn build_asm(cfg: &EngineConfig) -> String {
    let lay = cfg.layout();
    assert!(
        2 * cfg.chunk() as u32 <= lay.spike_seg,
        "core chunk overflows its spike-list segment"
    );
    assert!(
        cfg.n_cores >= 1 && cfg.n_cores <= lay.core_slots,
        "spike-count table sized for {} cores",
        lay.core_slots
    );
    assert!(
        cfg.ticks >= 1 && cfg.ticks < 65536,
        "spike-log packing uses 16-bit timestamps"
    );
    assert!((1..=9).contains(&cfg.tau), "DCU τ selector is 1..9");
    if lay.is_scaled() {
        assert!(
            cfg.sparse && cfg.variant != Variant::SoftFloat,
            "scaled shapes are sparse-only and fixed-point-only"
        );
    }
    if cfg.plastic {
        assert!(
            cfg.sparse && cfg.variant == Variant::Npu,
            "STDP lives in the sparse NPU phase-A walk"
        );
    }
    if cfg.stim {
        assert!(
            cfg.variant != Variant::SoftFloat,
            "the stimulus drain adds fixed-point current"
        );
    }
    let mut s = layout::equ_prelude_for(&lay, cfg.n, cfg.ticks, cfg.n_cores, cfg.tau);
    s.push_str(&format!(".equ CHUNK, {}\n", cfg.chunk()));
    s.push_str(&format!(
        ".equ NOISE_TICKS, {}\n",
        lay.noise_rows(cfg.n, cfg.ticks)
    ));
    s.push_str(&format!(
        ".equ NOISE_TICKS_F32, {}\n",
        lay.noise_rows_f32(cfg.n, cfg.ticks)
    ));
    s.push_str(&format!(".equ ROWPTR_STRIDE, {}\n", (cfg.n + 1) * 4));
    s.push_str(&format!(".equ HBITS, {}\n", u32::from(cfg.pin) << 1)); // h = 0.5 ms
    if cfg.stim {
        s.push_str(&format!(".equ STIM_CURRENT, {STIM_CURRENT_Q15_16:#x}\n"));
    }
    s.push_str(&skeleton_head(&lay));
    if cfg.variant == Variant::Npu {
        s.push_str("    li   a6, HBITS\n    nmldh x0, a6, x0\n");
    }
    s.push_str(SKELETON_LOOP_TOP);
    s.push_str(if cfg.coupled {
        PHASE_A_ALL_PRODUCERS
    } else {
        PHASE_A_OWN_PRODUCER
    });
    s.push_str(&phase_a_head(&lay));
    let stdp_store = |body: &str| {
        // STDP: the spike branch also records the neuron's spike tick for
        // the next tick's phase-A window test (t0/t5 are dead there).
        body.replacen(
            "\nphaseB_no_spike:",
            "\
\n    li   t0, LAST_SPIKE
    slli t5, a3, 2
    add  t0, t0, t5
    sw   s2, (t0)            # record my last spike tick (STDP)
phaseB_no_spike:",
            1,
        )
    };
    match cfg.variant {
        Variant::Npu => {
            if cfg.plastic {
                s.push_str(&phase_a_sparse_stdp());
            } else if cfg.sparse {
                s.push_str(PHASE_A_SPARSE);
            } else {
                s.push_str(PHASE_A_FIXED);
            }
            s.push_str(phase_a_tail(cfg.coupled));
            if cfg.stim {
                s.push_str(STIM_DRAIN);
            }
            s.push_str(&phase_b_head(&lay));
            let body = if cfg.scheduled {
                PHASE_B_NPU
            } else {
                PHASE_B_NPU_NAIVE
            };
            if cfg.plastic {
                s.push_str(&stdp_store(body));
            } else {
                s.push_str(body);
            }
        }
        Variant::BaseFixed => {
            s.push_str(if cfg.sparse {
                PHASE_A_SPARSE
            } else {
                PHASE_A_FIXED
            });
            s.push_str(phase_a_tail(cfg.coupled));
            if cfg.stim {
                s.push_str(STIM_DRAIN);
            }
            s.push_str(&phase_b_head(&lay));
            s.push_str(&phase_b_base_fixed(cfg.tau));
        }
        Variant::SoftFloat => {
            s.push_str(if cfg.sparse {
                PHASE_A_SPARSE_SOFTFLOAT
            } else {
                PHASE_A_SOFTFLOAT
            });
            s.push_str(phase_a_tail(cfg.coupled));
            s.push_str(PHASE_B_HEAD_F32);
            s.push_str(PHASE_B_SOFTFLOAT_LOOP);
        }
    }
    s.push_str(&skeleton_tail(cfg.coupled, &lay));
    if cfg.variant == Variant::SoftFloat {
        s.push_str(SF_HALF_STEP);
        s.push_str(FADD_FMUL_ASM);
    }
    s
}

/// Entry: core id, neuron range, per-core stack, spike-count reset.
fn skeleton_head(lay: &layout::Layout) -> String {
    format!(
        "
_start:
    li   t0, MMIO_COREID
    lw   s4, (t0)            # hart id
    # per-core stack at the top of the scratchpad
    li   sp, {stack_top:#x}
    slli t1, s4, {stack_shift}
    sub  sp, sp, t1
    li   t1, CHUNK
    mul  s0, s4, t1          # start neuron
    add  s1, s0, t1
    li   t2, N
    ble  s1, t2, end_ok
    add  s1, t2, x0          # clamp end
end_ok:
    ble  s0, s1, range_ok
    add  s0, s1, x0          # empty range for surplus cores
range_ok:
    li   t0, SPIKE_COUNTS
    slli t1, s4, 2
    add  t0, t0, t1
    sw   x0, (t0)            # zero parity-0 count
    sw   x0, {parity_bytes}(t0)          # zero parity-1 count
",
        stack_top = lay.stack_top,
        stack_shift = lay.stack_shift,
        parity_bytes = lay.core_slots * 4,
    )
}

/// After optional variant-specific config: barrier, ROI start, loop top.
const SKELETON_LOOP_TOP: &str = "
    call barrier
    li   t0, MMIO_ROI
    li   t1, 1
    sw   t1, (t0)            # counters: start region of interest
    li   s2, 0               # tick
    li   s3, 0               # parity
tick_loop:
    li   s7, 0               # spikes appended this tick
    bge  s0, s1, tick_publish # surplus core: nothing to do
    li   t0, 1
    sub  t6, t0, s3          # previous parity
";

/// Phase A producer initialisation, coupled engine: walk every core's
/// previous-tick spike list.
const PHASE_A_ALL_PRODUCERS: &str = "    li   a4, 0               # producer core k\n";

/// Phase A producer initialisation, uncoupled (sweep) engine: only this
/// core's own list feeds its block-diagonal sub-population.
const PHASE_A_OWN_PRODUCER: &str = "    add  a4, s4, x0          # sole producer: own spike list\n";

/// Phase A per-producer header: load the producer's spike count and point
/// `t0` at its list segment.
fn phase_a_head(lay: &layout::Layout) -> String {
    format!(
        "
phaseA_core:
    li   t0, SPIKE_COUNTS
    slli t1, t6, {count_parity_shift}
    add  t0, t0, t1
    slli t1, a4, 2
    add  t0, t0, t1
    lw   a5, (t0)            # spike count of core k, prev tick
    beqz a5, phaseA_next_core
    li   t0, SPIKE_LISTS
    li   t1, SPIKE_PARITY_STRIDE
    mul  t1, t1, t6
    add  t0, t0, t1
    slli t1, a4, {seg_shift}
    add  t0, t0, t1          # t0 = spike-list cursor
",
        count_parity_shift = lay.count_parity_shift,
        seg_shift = lay.spike_seg_shift,
    )
}

/// Phase A producer-loop tail: the coupled engine advances to the next
/// producer core; the uncoupled engine falls through after its own list.
fn phase_a_tail(coupled: bool) -> &'static str {
    if coupled {
        "
phaseA_next_core:
    addi a4, a4, 1
    li   t0, NCORES
    bne  a4, t0, phaseA_core
"
    } else {
        "
phaseA_next_core:
"
    }
}

/// Phase A for the fixed-point variants: scatter w (Q7.8 -> Q15.16) rows.
const PHASE_A_FIXED: &str = "
phaseA_spike:
    lhu  a2, (t0)            # presynaptic neuron j
    addi t0, t0, 2
    li   t1, N
    mul  a2, a2, t1
    add  a2, a2, s0
    slli a2, a2, 1
    li   t1, WEIGHTS
    add  a2, a2, t1          # &W[j][start]
    li   t1, ISYN
    slli t2, s0, 2
    add  t1, t1, t2          # &Isyn[start]
    sub  t3, s1, s0
phaseA_inner:
    lh   t4, (a2)            # w (Q7.8)
    lw   t5, (t1)            # Isyn (fills the load-use slot)
    slli t4, t4, 8           # -> Q15.16
    add  t5, t5, t4
    sw   t5, (t1)
    addi a2, a2, 2
    addi t1, t1, 4
    addi t3, t3, -1
    bnez t3, phaseA_inner
    addi a5, a5, -1
    bnez a5, phaseA_spike
";

/// Phase A, sparse CSR walk (fixed-point variants): for each spike, only
/// the edges whose targets this core owns are visited.
const PHASE_A_SPARSE: &str = "
phaseA_spike:
    lhu  a2, (t0)            # presynaptic neuron j
    addi t0, t0, 2
    li   t1, ROWPTR
    li   t2, ROWPTR_STRIDE
    mul  t2, t2, s4
    add  t1, t1, t2          # my rowptr table
    slli a2, a2, 2
    add  t1, t1, a2
    lw   t2, (t1)            # edge range lo
    lw   t3, 4(t1)           # edge range hi
    beq  t2, t3, phaseA_row_done
    slli t2, t2, 2
    li   t1, EDGES
    add  t2, t2, t1          # edge cursor
    slli t3, t3, 2
    add  t3, t3, t1          # edge end
    li   t1, ISYN
phaseA_inner:
    lh   t4, 2(t2)           # weight (Q7.8, high half)
    lhu  t5, (t2)            # target (low half)
    slli t4, t4, 8           # -> Q15.16 (fills the load-use slot)
    slli t5, t5, 2
    add  t5, t5, t1
    lw   a2, (t5)
    addi t2, t2, 4           # fills the load-use slot
    add  a2, a2, t4
    sw   a2, (t5)
    bne  t2, t3, phaseA_inner
phaseA_row_done:
    addi a5, a5, -1
    bnez a5, phaseA_spike
";

/// Phase A, sparse CSR walk with delivery-time nearest-neighbour STDP
/// (NPU variant only). Per delivered edge: if the *target* spiked within
/// [`STDP_WINDOW`] ticks before this delivery, the weight is depressed by
/// [`STDP_A_MINUS`], otherwise potentiated by [`STDP_A_PLUS`]; the result
/// is clamped to [[`STDP_WMIN`], [`STDP_WMAX`]], written back into the
/// edge word and *that updated weight* is delivered. Every edge word and
/// every `LAST_SPIKE` entry it reads belong to this core (targets are
/// owned, `LAST_SPIKE` is written by the owner's phase B on the far side
/// of a barrier), so the rule is race-free and bit-identical across all
/// scheduling modes.
fn phase_a_sparse_stdp() -> String {
    format!(
        "
phaseA_spike:
    lhu  a2, (t0)            # presynaptic neuron j
    addi t0, t0, 2
    li   t1, ROWPTR
    li   t2, ROWPTR_STRIDE
    mul  t2, t2, s4
    add  t1, t1, t2          # my rowptr table
    slli a2, a2, 2
    add  t1, t1, a2
    lw   t2, (t1)            # edge range lo
    lw   t3, 4(t1)           # edge range hi
    beq  t2, t3, phaseA_row_done
    slli t2, t2, 2
    li   t1, EDGES
    add  t2, t2, t1          # edge cursor
    slli t3, t3, 2
    add  t3, t3, t1          # edge end
    li   t1, ISYN
    li   a6, LAST_SPIKE
phaseA_inner:
    lh   t4, 2(t2)           # weight (Q7.8, high half)
    lhu  t5, (t2)            # target (low half)
    slli a7, t5, 2
    add  a7, a7, a6
    lw   a7, (a7)            # target's last spike tick
    sub  a7, s2, a7          # ticks since it (unsigned; init is huge)
    li   a3, {window}
    bltu a7, a3, stdp_dep
    addi t4, t4, {a_plus}    # potentiate
    li   a3, {wmax}
    ble  t4, a3, stdp_apply
    add  t4, a3, x0          # clamp high
    j    stdp_apply
stdp_dep:
    addi t4, t4, -{a_minus}  # depress
    li   a3, {wmin}
    bge  t4, a3, stdp_apply
    add  t4, a3, x0          # clamp low
stdp_apply:
    slli a7, t4, 16          # updated weight into the high half
    or   a7, a7, t5
    sw   a7, (t2)            # persist the plastic weight
    slli a3, t4, 8           # deliver the updated weight (-> Q15.16)
    slli t5, t5, 2
    add  t5, t5, t1
    lw   a7, (t5)
    addi t2, t2, 4           # fills the load-use slot
    add  a7, a7, a3
    sw   a7, (t5)
    bne  t2, t3, phaseA_inner
phaseA_row_done:
    addi a5, a5, -1
    bnez a5, phaseA_spike
",
        window = STDP_WINDOW,
        a_plus = STDP_A_PLUS,
        a_minus = STDP_A_MINUS,
        wmax = STDP_WMAX,
        wmin = STDP_WMIN,
    )
}

/// Per-tick stimulus drain (between phases A and B): select this tick's
/// queue on the MMIO stimulus port, then add [`STIM_CURRENT_Q15_16`] to
/// the synaptic current of every neuron the port returns until the `-1`
/// sentinel. The device queues are per-core, so each core only ever sees
/// (and owns) its own injected neurons.
const STIM_DRAIN: &str = "
    li   t0, MMIO_STIM
    sw   s2, (t0)            # select this tick's stimulus queue
    li   t3, ISYN
    li   t2, -1
    li   t5, STIM_CURRENT
stim_drain:
    lw   t1, (t0)            # next injected neuron, or -1 when drained
    beq  t1, t2, stim_done
    slli t1, t1, 2
    add  t1, t1, t3
    lw   t4, (t1)
    add  t4, t4, t5
    sw   t4, (t1)            # Isyn[neuron] += stimulus current
    j    stim_drain
stim_done:
";

/// Phase A, sparse CSR walk for the soft-float variant. The soft-float
/// library clobbers `t0`-`t6`, and `t6` holds the previous-tick parity
/// that [`PHASE_A_HEAD`] re-reads for the *next* producer core — so the
/// parity is parked in `s8` (free until phase B) across the deposit
/// calls. Without this, every producer after the first spiking one reads
/// its spike count at a garbage parity offset: an interleaving-dependent
/// value that silently broke cross-scheduler raster identity for
/// multi-core soft-float runs.
const PHASE_A_SPARSE_SOFTFLOAT: &str = "
phaseA_spike:
    lhu  a2, (t0)
    addi t0, t0, 2
    add  s5, t0, x0          # save cursor across calls
    add  s6, a5, x0          # save remaining spike count
    add  s8, t6, x0          # save prev parity (calls clobber t0-t6)
    li   t1, ROWPTR
    li   t2, ROWPTR_STRIDE
    mul  t2, t2, s4
    add  t1, t1, t2
    slli a2, a2, 2
    add  t1, t1, a2
    lw   s9, (t1)            # edge index lo
    lw   s10, 4(t1)          # edge index hi
    beq  s9, s10, phaseA_row_done
phaseA_inner:
    slli t1, s9, 2
    li   t2, EDGES
    add  t2, t2, t1
    lhu  t3, (t2)            # target
    li   t2, EDGES_F32
    add  t2, t2, t1
    lw   a1, (t2)            # f32 weight
    slli t3, t3, 2
    li   t2, F32_ISYN
    add  s11, t2, t3         # isyn address (survives the call)
    lw   a0, (s11)
    call fadd
    sw   a0, (s11)
    addi s9, s9, 1
    bne  s9, s10, phaseA_inner
phaseA_row_done:
    add  t0, s5, x0
    add  a5, s6, x0
    add  t6, s8, x0          # restore prev parity for the next producer
    addi a5, a5, -1
    bnez a5, phaseA_spike
";

/// Phase A for the soft-float variant: every deposit is an fadd call.
/// Parity preservation as in [`PHASE_A_SPARSE_SOFTFLOAT`].
const PHASE_A_SOFTFLOAT: &str = "
phaseA_spike:
    lhu  a2, (t0)
    addi t0, t0, 2
    add  s5, t0, x0          # save cursor across calls
    add  s6, a5, x0          # save remaining spike count
    add  s8, t6, x0          # save prev parity (calls clobber t0-t6)
    li   t1, N
    mul  a2, a2, t1
    add  a2, a2, s0
    slli a2, a2, 2
    li   t1, WEIGHTS_F32
    add  s9, a2, t1          # &Wf[j][start]
    li   t1, F32_ISYN
    slli t2, s0, 2
    add  s10, t1, t2         # &IsynF[start]
    sub  s11, s1, s0
phaseA_inner:
    lw   a0, (s10)
    lw   a1, (s9)
    call fadd
    sw   a0, (s10)
    addi s9, s9, 4
    addi s10, s10, 4
    addi s11, s11, -1
    bnez s11, phaseA_inner
    add  t0, s5, x0
    add  a5, s6, x0
    add  t6, s8, x0          # restore prev parity for the next producer
    addi a5, a5, -1
    bnez a5, phaseA_spike
";

/// Phase B prologue shared by the fixed-point variants: pointer setup.
fn phase_b_head(lay: &layout::Layout) -> String {
    format!(
        "
    li   s8, SPIKE_LISTS
    li   t1, SPIKE_PARITY_STRIDE
    mul  t1, t1, s3
    add  s8, s8, t1
    slli t1, s4, {seg_shift}
    add  s8, s8, t1          # my current spike-list cursor
    add  a3, s0, x0          # i = start
    li   s5, ISYN
    slli t1, s0, 2
    add  s5, s5, t1
    li   s6, VU
    slli t1, s0, 2
    add  s6, s6, t1
    li   s9, PARAMS
    slli t1, s0, 3
    add  s9, s9, t1
    slli t1, s2, 13          # xorshift hash of the tick: row selection
    xor  t1, t1, s2          # stays aperiodic even when the noise table
    srli t2, t1, 17          # is shorter than the run (a sequential wrap
    xor  t1, t1, t2          # would phase-lock the stochastic dynamics)
    slli t2, t1, 5
    xor  t1, t1, t2
    li   s10, NOISE_TICKS
    remu s10, t1, s10
    li   t1, N
    mul  s10, s10, t1
    add  s10, s10, s0
    slli s10, s10, 1
    li   t1, NOISE
    add  s10, s10, t1        # &noise[hash(t) mod P][start]
",
        seg_shift = lay.spike_seg_shift,
    )
}

/// Phase B prologue for the soft-float variant (f32 arrays, 4-byte noise).
const PHASE_B_HEAD_F32: &str = "
    li   s8, SPIKE_LISTS
    li   t1, SPIKE_PARITY_STRIDE
    mul  t1, t1, s3
    add  s8, s8, t1
    slli t1, s4, 11
    add  s8, s8, t1
    add  a4, s0, x0          # i = start (a4 survives calls)
    li   s5, F32_ISYN
    slli t1, s0, 2
    add  s5, s5, t1
    li   s6, F32_V
    slli t1, s0, 2
    add  s6, s6, t1
    li   s11, F32_U
    slli t1, s0, 2
    add  s11, s11, t1
    li   s9, F32_PARAMS
    slli t1, s0, 4
    add  s9, s9, t1
    slli t1, s2, 13          # same hashed row selection as the
    xor  t1, t1, s2          # fixed-point engine
    srli t2, t1, 17
    xor  t1, t1, t2
    slli t2, t1, 5
    xor  t1, t1, t2
    li   s10, NOISE_TICKS_F32
    remu s10, t1, s10
    li   t1, N
    mul  s10, s10, t1
    add  s10, s10, s0
    slli s10, s10, 2
    li   t1, NOISE_F32
    add  s10, s10, t1
";

/// Phase B, NPU variant — the paper's Listing-1 flow, two half-steps.
/// Scheduled so every load/nm result has one unrelated instruction before
/// its first use (the compiler's job on the real system; keeps the hazard
/// stalls in the paper's sub-percent range for the single core).
const PHASE_B_NPU: &str = "
phaseB_neuron:
    lw   a6, (s9)            # {b, a}
    lw   a7, 4(s9)           # {d, c}
    lh   t5, (s10)           # thalamic drive (Q7.8), hoisted
    nmldl x0, a6, a7         # load neuron parameters
    lw   a2, (s5)            # Isyn (Q15.16)
    li   t6, TAU
    slli t5, t5, 8           # thalamic -> Q15.16
    nmdec a2, a2, t6         # synaptic decay (DCU)
    lw   a6, (s6)            # VU word (fills the nm result slot)
    sw   a2, (s5)            # persist decayed current
    add  a7, a2, t5          # total drive
    add  a2, x0, s6
    nmpn a2, a6, a7          # half-step 1 (stores VU, returns spike)
    lw   a6, (s6)            # reload updated VU (fills the nm slot)
    add  t4, x0, a2
    add  a2, x0, s6
    nmpn a2, a6, a7          # half-step 2
    addi s5, s5, 4           # pointer bumps fill the nm slot
    or   t4, t4, a2
    addi s9, s9, 8
    addi s10, s10, 2
    beqz t4, phaseB_no_spike
    sh   a3, (s8)
    addi s8, s8, 2
    addi s7, s7, 1
    slli t5, s2, 16
    or   t5, t5, a3
    li   t0, MMIO_SPIKE_LOG
    sw   t5, (t0)            # export (t, neuron) to the host raster
phaseB_no_spike:
    addi a3, a3, 1
    addi s6, s6, 4
    bne  a3, s1, phaseB_neuron
";

/// Phase B, NPU variant, *naive* ordering: every load and nm result is
/// consumed by the very next instruction, exposing the load-use and
/// nm-writeback hazards the paper reports (and proposes CSR writeback
/// for). Functionally identical to [`PHASE_B_NPU`].
const PHASE_B_NPU_NAIVE: &str = "
phaseB_neuron:
    lw   a6, (s9)            # {b, a}
    lw   a7, 4(s9)           # {d, c}
    nmldl x0, a6, a7         # nm consumes the load immediately
    lw   a2, (s5)            # Isyn
    li   t6, TAU
    nmdec a2, a2, t6
    sw   a2, (s5)            # consumes the nm result immediately
    lh   t5, (s10)
    slli t5, t5, 8           # load-use
    add  a7, a2, t5
    lw   a6, (s6)
    add  a2, x0, s6
    nmpn a2, a6, a7
    add  t4, x0, a2          # consumes the spike flag immediately
    lw   a6, (s6)
    add  a2, x0, s6
    nmpn a2, a6, a7
    or   t4, t4, a2          # consumes the spike flag immediately
    beqz t4, phaseB_no_spike
    sh   a3, (s8)
    addi s8, s8, 2
    addi s7, s7, 1
    slli t5, s2, 16
    or   t5, t5, a3
    li   t0, MMIO_SPIKE_LOG
    sw   t5, (t0)
phaseB_no_spike:
    addi a3, a3, 1
    addi s5, s5, 4
    addi s6, s6, 4
    addi s9, s9, 8
    addi s10, s10, 2
    bne  a3, s1, phaseB_neuron
";

/// Phase B in base-ISA fixed point: the 19-operation update, twice per
/// tick (half-steps), plus the shift-approximated decay for the given τ.
fn phase_b_base_fixed(tau: u32) -> String {
    // Decay: dec = (sum of shifts) >> 1 (h = 0.5 ms); isyn -= dec.
    let shifts = SHIFT_TABLES[(tau as usize).clamp(1, 9) - 1];
    let mut decay = String::new();
    decay.push_str(&format!("    srai t0, a7, {}\n", shifts[0]));
    for &sh in &shifts[1..] {
        decay.push_str(&format!("    srai t3, a7, {sh}\n    add  t0, t0, t3\n"));
    }
    decay.push_str("    srai t0, t0, 1\n    sub  a7, a7, t0\n");

    let half_step = |k: u32| {
        format!(
            "
bf_step{k}:
    li   t3, 7680            # 30 mV in Q7.8
    blt  t1, t3, bf_nr{k}
    lh   t1, 4(s9)           # v <- c
    lh   t3, 6(s9)           # d (Q4.11)
    srai t3, t3, 3           # -> Q7.8
    add  t2, t2, t3          # u += d
    li   t4, 1               # spike flag
bf_nr{k}:
    mul  t5, t1, t1          # v^2 (Q*.16)
    srai t5, t5, 8           # Q7.8
    li   t3, 41              # 0.04 in Q0.10
    mul  t5, t5, t3
    srai t5, t5, 10          # 0.04 v^2, Q7.8
    slli t3, t1, 2
    add  t3, t3, t1          # 5v
    add  t5, t5, t3
    li   t3, 35840           # 140 in Q7.8
    add  t5, t5, t3
    sub  t5, t5, t2          # -u
    add  t5, t5, a5          # + drive (Q7.8)
    srai t5, t5, 1           # * h
    lh   t3, 2(s9)           # b (Q4.11)
    mul  t6, t3, t1          # b v (Q*.19)
    srai t6, t6, 11          # Q7.8
    sub  t6, t6, t2
    lh   t3, (s9)            # a (Q4.11)
    mul  t6, t6, t3
    srai t6, t6, 11
    srai t6, t6, 1           # * h
    add  t1, t1, t5          # v'
    add  t2, t2, t6          # u'
"
        )
    };

    format!(
        "
phaseB_neuron:
    lw   a7, (s5)            # Isyn (Q15.16)
{decay}
    sw   a7, (s5)
    srai a5, a7, 8           # -> Q7.8 drive
    lh   t5, (s10)           # thalamic (Q7.8)
    add  a5, a5, t5
    lw   t0, (s6)            # VU word
    srai t1, t0, 16          # v
    slli t2, t0, 16
    srai t2, t2, 16          # u
    li   t4, 0               # spike flag
{step0}
{step1}
    slli t1, t1, 16          # repack VU
    slli t2, t2, 16
    srli t2, t2, 16
    or   t0, t1, t2
    sw   t0, (s6)
    beqz t4, phaseB_no_spike
    sh   a3, (s8)
    addi s8, s8, 2
    addi s7, s7, 1
    slli t5, s2, 16
    or   t5, t5, a3
    li   t0, MMIO_SPIKE_LOG
    sw   t5, (t0)
phaseB_no_spike:
    addi a3, a3, 1
    addi s5, s5, 4
    addi s6, s6, 4
    addi s9, s9, 8
    addi s10, s10, 2
    bne  a3, s1, phaseB_neuron
",
        decay = decay,
        step0 = half_step(0),
        step1 = half_step(1),
    )
}

/// Phase B loop through the soft-float library. Live across calls:
/// a4 = i, a5 = drive, a6 = v, a7 = u, gp = spike flag.
const PHASE_B_SOFTFLOAT_LOOP: &str = "
phaseB_neuron:
    lw   a0, (s5)            # Isyn (f32)
    li   a1, DECAY_F32
    call fmul                # Isyn *= (1 - h/tau)
    sw   a0, (s5)
    lw   a1, (s10)           # thalamic (f32)
    call fadd
    add  a5, a0, x0          # drive
    lw   a6, (s6)            # v
    lw   a7, (s11)           # u
    add  gp, x0, x0          # spike flag
    call sf_half_step
    call sf_half_step
    sw   a6, (s6)
    sw   a7, (s11)
    beqz gp, phaseB_no_spike
    sh   a4, (s8)
    addi s8, s8, 2
    addi s7, s7, 1
    slli t5, s2, 16
    or   t5, t5, a4
    li   t0, MMIO_SPIKE_LOG
    sw   t5, (t0)
phaseB_no_spike:
    addi a4, a4, 1
    addi s5, s5, 4
    addi s6, s6, 4
    addi s11, s11, 4
    addi s9, s9, 16
    addi s10, s10, 4
    bne  a4, s1, phaseB_neuron
";

/// One 0.5 ms soft-float half-step over (a6 = v, a7 = u, a5 = drive);
/// sets gp on threshold crossing. Uses the stack for intermediates.
const SF_HALF_STEP: &str = "
sf_half_step:
    addi sp, sp, -12
    sw   ra, 8(sp)
    # spike test: v >= 30.0 (positive IEEE bits are numerically ordered)
    bltz a6, sf_nospike
    li   t0, 0x41F00000      # 30.0f
    blt  a6, t0, sf_nospike
    lw   a6, 8(s9)           # v <- c
    lw   a0, 12(s9)          # d
    add  a1, a7, x0
    call fadd
    add  a7, a0, x0          # u += d
    li   gp, 1
sf_nospike:
    add  a0, a6, x0
    add  a1, a6, x0
    call fmul                # v^2
    li   a1, 0x3D23D70A      # 0.04f
    call fmul
    sw   a0, (sp)            # acc = 0.04 v^2
    add  a0, a6, x0
    li   a1, 0x40A00000      # 5.0f
    call fmul
    lw   a1, (sp)
    call fadd
    li   a1, 0x430C0000      # 140.0f
    call fadd
    li   t0, 0x80000000
    xor  a1, a7, t0          # -u
    call fadd
    add  a1, a5, x0          # + drive
    call fadd
    li   a1, 0x3F000000      # 0.5f (h)
    call fmul
    sw   a0, (sp)            # h*dv
    lw   a0, 4(s9)           # b
    add  a1, a6, x0
    call fmul                # b v
    li   t0, 0x80000000
    xor  a1, a7, t0
    call fadd                # b v - u
    lw   a1, (s9)            # a
    call fmul
    li   a1, 0x3F000000
    call fmul                # h*du
    sw   a0, 4(sp)
    lw   a1, (sp)
    add  a0, a6, x0
    call fadd
    add  a6, a0, x0          # v += h dv
    lw   a1, 4(sp)
    add  a0, a7, x0
    call fadd
    add  a7, a0, x0          # u += h du
    lw   ra, 8(sp)
    addi sp, sp, 12
    ret
";

/// Tail: publish spike count, barrier (coupled only), parity flip, loop,
/// ROI stop, halt. The barrier routine stays in both variants — the
/// skeleton head always synchronises once before the tick loop.
fn skeleton_tail(coupled: bool, lay: &layout::Layout) -> String {
    let sync = if coupled { "    call barrier\n" } else { "" };
    format!(
        "
tick_publish:
    li   t0, SPIKE_COUNTS
    slli t1, s3, {count_parity_shift}
    add  t0, t0, t1
    slli t1, s4, 2
    add  t0, t0, t1
    sw   s7, (t0)            # publish my spike count
{sync}    xori s3, s3, 1
    addi s2, s2, 1
    li   t0, TICKS
    bne  s2, t0, tick_loop
    li   t0, MMIO_ROI
    sw   x0, (t0)            # stop counters
    li   t0, MMIO_HALT
    sw   x0, (t0)
    ebreak

barrier:
    li   t0, MMIO_BARRIER
    lw   t1, (t0)            # generation
    sw   x0, (t0)            # arrive
barrier_spin:
    lw   t2, (t0)
    beq  t2, t1, barrier_spin
    ret
",
        count_parity_shift = lay.count_parity_shift,
    )
}

/// Everything a run needs that is built *before* the first cycle: the
/// loaded main memory (program segments + data tables), the predecoded
/// code table, the entry point, and the patch maps naming which spans of
/// that memory came from the program (seed-invariant) versus the guest
/// image (seed-dependent). The cold path feeds this straight into
/// [`System::from_snapshot`]; the template cache snapshots it and replays
/// it per instantiation.
#[derive(Debug, Clone)]
pub struct PreparedRun {
    /// Loaded guest memory: program + data tables, never yet executed.
    pub mem: MainMemory,
    /// Predecoded micro-op stream covering the program segments.
    pub code: CodeTable,
    /// Program entry point (every core starts here).
    pub entry: u32,
    /// Spans holding the assembled program segments.
    pub prog_spans: PatchMap,
    /// Spans holding the guest image's data tables.
    pub image_spans: PatchMap,
}

/// Shape/bounds assertions shared by the cold and template paths.
pub(crate) fn assert_run_shape(cfg: &EngineConfig, image: &GuestImage) {
    assert_eq!(image.n, cfg.n, "image/config neuron-count mismatch");
    assert!(
        image.ticks >= cfg.ticks,
        "image was built for fewer ticks than the run requests"
    );
    let lay = cfg.layout();
    assert!(
        cfg.system.scratch_size >= lay.scratch_size,
        "scratchpad too small for this shape — call EngineConfig::fit_memory"
    );
    assert!(
        cfg.system.sdram_size >= lay.sdram_size,
        "SDRAM too small for this shape — call EngineConfig::fit_memory"
    );
    assert!(
        image.noise_q.len() >= lay.noise_rows(cfg.n, cfg.ticks) as usize * cfg.n,
        "image noise table shorter than the run's noise window"
    );
}

/// Refuse a load whose written spans overlap: the later table would
/// have silently overwritten part of the earlier one. Together the
/// program's and the image's patch maps name every byte a load writes.
fn assert_disjoint(maps: [&PatchMap; 2]) {
    let mut spans: Vec<(u32, u32)> = maps.iter().flat_map(|m| m.spans()).copied().collect();
    spans.sort_unstable();
    for w in spans.windows(2) {
        let ((a, len), (b, _)) = (w[0], w[1]);
        assert!(
            u64::from(a) + u64::from(len) <= u64::from(b),
            "guest-memory spans overlap: [{a:#x}, {:#x}) runs into {b:#x} — \
             Scenario::validate must reject this shape",
            u64::from(a) + u64::from(len)
        );
    }
}

/// Assemble the engine, lay the program and image out in a fresh memory
/// and predecode the code — the build phase of [`run_workload`], shared
/// verbatim with the template cache so a snapshot-instantiated run starts
/// from bit-identical state by construction.
pub fn prepare_run(cfg: &EngineConfig, image: &GuestImage) -> PreparedRun {
    assert_run_shape(cfg, image);
    let mut asm = build_asm(cfg);
    // The decay constant is config-dependent; bind it here.
    let decay = (1.0 - 0.5 / cfg.tau as f64) as f32;
    asm = format!(".equ DECAY_F32, {:#x}\n{asm}", decay.to_bits());
    let prog = Assembler::new()
        .relax(cfg.system.asm_relax)
        .assemble(&asm)
        .unwrap_or_else(|e| panic!("engine assembly failed: {e}"));
    let mut mem = MainMemory::new(cfg.system.sdram_size, cfg.system.scratch_size);
    let mut prog_spans = PatchMap::default();
    for seg in &prog.segments {
        assert!(mem.write_bytes(seg.base, &seg.data), "program load failed");
        prog_spans.record(seg.base, seg.data.len());
    }
    let mut code = CodeTable::new(cfg.system.sdram_size, cfg.system.scratch_size);
    for seg in &prog.segments {
        code.preload(seg.base, seg.data.len() as u32, &mem);
    }
    // Register the engine's hot inner loops as kernel spans: phase A's
    // accumulate loop and phase B's per-neuron update. Registration is a
    // structural audit of the assembled words, so it tracks whatever the
    // assembler actually emitted (relaxation included); a shape the audit
    // cannot prove batchable simply declines and the interpreter runs it.
    // Soft-float phase B calls helper routines, which the audit rejects —
    // skip it outright rather than audit a shape known not to qualify.
    if cfg.variant != Variant::SoftFloat {
        for sym in ["phaseA_inner", "phaseB_neuron"] {
            if let Some(entry) = prog.symbol(sym) {
                let _ = register_kernel_span(&mut code, &mem, entry);
            }
        }
    }
    let mut image_spans = PatchMap::default();
    image.load_into_mem(&mut mem, cfg, &mut image_spans);
    assert_disjoint([&prog_spans, &image_spans]);
    PreparedRun {
        mem,
        code,
        entry: prog.entry,
        prog_spans,
        image_spans,
    }
}

/// The `IZHI_PROFILE` report of a finished run, built from its own cores:
/// the per-op-class retired-instruction histogram summed across cores,
/// the share of retirement that ran inside kernel-span batches (split
/// into the native and the generic tier) and, for
/// relaxed runs, where the scheduler retired it.
fn profile_report(sys: &System, instret: u64) -> String {
    let mut classes = [0u64; OpClass::ALL.len()];
    let (mut kernel, mut native) = (0u64, 0u64);
    for i in 0..sys.n_cores() {
        let core = sys.core(i);
        for (sum, n) in classes.iter_mut().zip(core.counters.op_classes()) {
            *sum += n;
        }
        kernel += core.kernel_instret;
        native += core.native_instret;
    }
    let total: u64 = classes.iter().sum();
    let mut out = format!("IZHI_PROFILE: {total} instructions retired by class\n");
    for class in OpClass::ALL {
        let v = classes[class as usize];
        if v == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:<6} {:>14}  {:5.1}%",
            class.label(),
            v,
            100.0 * v as f64 / total.max(1) as f64
        );
    }
    let _ = writeln!(
        out,
        "  kernel-span coverage: {kernel} of {instret} retired ({:.1}%): {native} native, {} generic",
        100.0 * kernel as f64 / instret.max(1) as f64,
        kernel - native
    );
    let par = sys.parallel_stats();
    if par.rounds > 0 {
        let _ = writeln!(
            out,
            "  host-parallel: {} rounds, {} waves; {} of {instret} retired in waves ({:.1}%), {} in the commit pass",
            par.rounds,
            par.waves,
            par.wave_instret,
            100.0 * par.wave_instret as f64 / instret.max(1) as f64,
            par.commit_instret
        );
    }
    out
}

/// Run a fully prepared system and collect the workload result — the
/// execute/collect phase of [`run_workload`], shared with the template
/// path.
pub fn run_prepared_system(
    sys: &mut System,
    cfg: &EngineConfig,
    max_cycles: u64,
) -> Result<WorkloadResult, SimError> {
    let exit = sys.run(max_cycles)?;
    // `IZHI_PROFILE` set to anything but `0` prints the report: one write
    // to stderr (battery JSON on stdout stays parseable), so the reports
    // of concurrent runs never interleave.
    if std::env::var("IZHI_PROFILE").is_ok_and(|v| v != "0") {
        eprint!("{}", profile_report(sys, exit.instret));
    }
    let raster = SpikeRaster::from_packed(cfg.n as u32, cfg.ticks, &sys.shared().dev.spike_log);
    let counters: Vec<PerfCounters> = (0..cfg.n_cores as usize)
        .map(|i| sys.core(i).roi_counters())
        .collect();
    // One neuron *update* in the paper's Eq.-9 sense is a full 1 ms step;
    // the engine realises it as two 0.5 ms `nmpn` half-steps.
    let metrics = counters
        .iter()
        .map(|c| Metrics::with_updates(c, cfg.system.clock_hz, c.nmpn / 2))
        .collect();
    let weight_hash = cfg.plastic.then(|| {
        // The total edge count is the last entry of the last core's row
        // pointers — mode-independent, so every scheduler reads back the
        // same multiset of words.
        let lay = cfg.layout();
        let n = cfg.n;
        let last = ((cfg.n_cores as usize - 1) * (n + 1) + n) as u32;
        let mem = &sys.shared().mem;
        let total = mem
            .read_u32(lay.rowptr + 4 * last)
            .expect("rowptr table out of range");
        let bytes = mem
            .span(lay.edges, 4 * total as usize)
            .expect("edge table out of range");
        let mut h: u64 = 0;
        for w in bytes.chunks_exact(4) {
            h = h.wrapping_add(edge_word_fnv(u32::from_le_bytes(w.try_into().unwrap())));
        }
        h
    });
    Ok(WorkloadResult {
        raster,
        metrics,
        counters,
        cycles: exit.cycles,
        instret: exit.instret,
        ticks: cfg.ticks,
        weight_hash,
    })
}

/// Assemble, load and run a workload end to end (the cold path: every
/// run pays the full build; see [`crate::template`] for the amortised
/// one).
pub fn run_workload(
    cfg: &EngineConfig,
    image: &GuestImage,
    max_cycles: u64,
) -> Result<WorkloadResult, SimError> {
    let prep = prepare_run(cfg, image);
    let mut system_cfg = cfg.system.clone();
    system_cfg.n_cores = cfg.n_cores;
    let mut sys = System::from_snapshot(system_cfg, prep.mem, prep.code, prep.entry);
    run_prepared_system(&mut sys, cfg, max_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Workload;
    use izhi_core::params::IzhParams;
    use izhi_snn::network::Network;

    #[test]
    #[should_panic(expected = "guest-memory spans overlap")]
    fn prepare_run_refuses_overlapping_tables() {
        // Past 2048 neurons the dense Q7.8 table runs into the noise
        // table. `Scenario::validate` rejects the shape; a caller that
        // skips validation still gets a refusal, not a corrupted image.
        let wl = crate::net8020::Net8020Workload::sized(1680, 420, 1, 4, 5, Variant::Npu);
        let _ = prepare_run(wl.cfg(), wl.image());
    }

    fn tiny_net(n: usize) -> Network {
        // A ring of RS neurons with modest excitatory coupling.
        let params = vec![IzhParams::regular_spiking(); n];
        let edges = (0..n)
            .map(|i| (i as u32, ((i + 1) % n) as u32, 3.0))
            .collect::<Vec<_>>();
        Network::from_edges(params, edges)
    }

    #[test]
    fn noise_table_is_the_same_at_every_chunk_count() {
        let n = 37;
        // Prime, so no chunk count below divides it, and a schedule whose
        // period does not line up with any chunk boundary.
        let rows = 43;
        let bias: Vec<f64> = (0..n).map(|i| i as f64 * 0.25 - 3.0).collect();
        let noise_std: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let schedule = [1.3, 1.1, 0.9, 0.7, 0.4];
        for sched in [&schedule[..], &[]] {
            // The sequential row-major draw loop.
            let mut rng = XorShift32::new(77);
            let mut want = Vec::new();
            for t in 0..rows {
                let gain = if sched.is_empty() {
                    1.0
                } else {
                    sched[t % sched.len()]
                };
                for i in 0..n {
                    let v = bias[i] + gain * noise_std[i] * rng.next_gaussian();
                    want.push(Q7_8::from_f64(v).raw());
                }
            }
            for helpers in [0, 1, 3] {
                for block_rows in [1, 2, 5, rows, 2 * rows] {
                    let mut got = vec![0; rows * n];
                    fill_noise(
                        &mut got,
                        &bias,
                        &noise_std,
                        sched,
                        77,
                        helpers,
                        block_rows,
                        || {},
                    );
                    assert_eq!(
                        got, want,
                        "{helpers} helpers, blocks of {block_rows} rows, schedule {sched:?}"
                    );
                }
            }
        }
    }

    fn run_tiny(variant: Variant, n_cores: u32, ticks: u32) -> WorkloadResult {
        let net = tiny_net(20);
        let bias = vec![6.0; 20];
        let noise = vec![2.0; 20];
        let image = GuestImage::from_network(&net, &bias, &noise, ticks, 11);
        let cfg = EngineConfig::new(20, ticks, n_cores, variant);
        run_workload(&cfg, &image, 4_000_000_000).expect("run failed")
    }

    #[test]
    fn kernel_spans_register_for_fixed_point_variants() {
        use izhi_sim::SpanState;
        // Every fixed-point loop shape the engine emits must survive the
        // structural audit — a silent registration failure is a perf
        // regression the differential suites cannot see.
        for (variant, sparse, scheduled, plastic) in [
            (Variant::Npu, false, true, false),
            (Variant::Npu, false, false, false),
            (Variant::Npu, true, true, false),
            (Variant::Npu, true, true, true),
            (Variant::BaseFixed, false, true, false),
        ] {
            let net = tiny_net(20);
            let bias = vec![6.0; 20];
            let noise = vec![2.0; 20];
            let image = GuestImage::from_network(&net, &bias, &noise, 5, 11);
            let mut cfg = EngineConfig::new(20, 5, 1, variant);
            cfg.sparse = sparse;
            cfg.scheduled = scheduled;
            cfg.plastic = plastic;
            let prep = prepare_run(&cfg, &image);
            let spans = prep.code.kernel_spans();
            let what = format!("{variant:?} sparse={sparse} sched={scheduled} stdp={plastic}");
            assert_eq!(spans.len(), 2, "{what}: both inner loops register");
            for s in spans {
                assert_eq!(s.state, SpanState::Ready, "{what}: span at {:#x}", s.entry);
            }
        }
        // Soft-float phase B calls helper routines; registration is
        // skipped outright.
        let net = tiny_net(20);
        let image = GuestImage::from_network(&net, &[6.0; 20], &[2.0; 20], 5, 11);
        let cfg = EngineConfig::new(20, 5, 1, Variant::SoftFloat);
        let prep = prepare_run(&cfg, &image);
        assert!(prep.code.kernel_spans().is_empty());
    }

    #[test]
    fn asm_assembles_for_all_variants() {
        for variant in [Variant::Npu, Variant::BaseFixed, Variant::SoftFloat] {
            for cores in [1, 2, 4] {
                let cfg = EngineConfig::new(100, 10, cores, variant);
                let asm = format!(".equ DECAY_F32, 0x3f400000\n{}", build_asm(&cfg));
                Assembler::new()
                    .assemble(&asm)
                    .unwrap_or_else(|e| panic!("{variant:?}/{cores}: {e}"));
            }
        }
    }

    #[test]
    fn npu_network_is_active() {
        let res = run_tiny(Variant::Npu, 1, 200);
        assert!(!res.raster.spikes.is_empty(), "no spikes at all");
        assert!(res.counters[0].nmpn > 0, "nmpn never retired");
        assert_eq!(
            res.counters[0].nmpn,
            2 * 20 * 200,
            "two nmpn per neuron-tick"
        );
        assert_eq!(res.counters[0].nmdec, 20 * 200);
    }

    #[test]
    fn base_fixed_matches_npu_statistically() {
        let a = run_tiny(Variant::Npu, 1, 300);
        let b = run_tiny(Variant::BaseFixed, 1, 300);
        assert!(b.counters[0].nmpn == 0, "baseline must not use nmpn");
        let ra = a.raster.spikes.len() as f64;
        let rb = b.raster.spikes.len() as f64;
        assert!(ra > 0.0 && rb > 0.0, "{ra} vs {rb}");
        assert!(
            (ra - rb).abs() / ra < 0.3,
            "spike counts diverge: {ra} vs {rb}"
        );
    }

    #[test]
    fn softfloat_matches_npu_statistically() {
        let a = run_tiny(Variant::Npu, 1, 150);
        let b = run_tiny(Variant::SoftFloat, 1, 150);
        assert!(b.counters[0].nmpn == 0);
        let ra = a.raster.spikes.len() as f64;
        let rb = b.raster.spikes.len() as f64;
        assert!(ra > 0.0 && rb > 0.0, "{ra} vs {rb}");
        assert!((ra - rb).abs() / ra.max(rb) < 0.35, "{ra} vs {rb}");
    }

    #[test]
    fn softfloat_is_dramatically_slower() {
        let a = run_tiny(Variant::Npu, 1, 100);
        let b = run_tiny(Variant::SoftFloat, 1, 100);
        let ratio = b.counters[0].cycles as f64 / a.counters[0].cycles as f64;
        assert!(ratio > 10.0, "soft-float only {ratio:.1}x slower");
    }

    #[test]
    fn softfloat_dual_core_matches_single_core_spikes() {
        // Regression: the soft-float library clobbers t0-t6, and the
        // coupled phase-A producer loop used to re-read spike counts with
        // a clobbered parity register (t6) after the first spiking
        // producer — wrong-parity counts made multi-core soft-float runs
        // interleaving-dependent. The partitioned run must reproduce the
        // single-core raster exactly, like every other variant.
        let r1 = run_tiny(Variant::SoftFloat, 1, 120);
        let r2 = run_tiny(Variant::SoftFloat, 2, 120);
        let mut s1 = r1.raster.spikes.clone();
        let mut s2 = r2.raster.spikes.clone();
        s1.sort_unstable();
        s2.sort_unstable();
        assert_eq!(s1, s2, "multi-core changed the soft-float computation");
    }

    #[test]
    fn dual_core_matches_single_core_spikes() {
        // Same image, same noise stream: spike rasters must be identical
        // regardless of core count (deterministic partitioned execution).
        let r1 = run_tiny(Variant::Npu, 1, 200);
        let r2 = run_tiny(Variant::Npu, 2, 200);
        let mut s1 = r1.raster.spikes.clone();
        let mut s2 = r2.raster.spikes.clone();
        s1.sort_unstable();
        s2.sort_unstable();
        assert_eq!(s1, s2, "multi-core changes the computation");
    }

    #[test]
    fn dual_core_is_faster() {
        let r1 = run_tiny(Variant::Npu, 1, 200);
        let r2 = run_tiny(Variant::Npu, 2, 200);
        let speedup = r1.cycles as f64 / r2.cycles as f64;
        assert!(speedup > 1.2, "dual-core speedup only {speedup:.2}");
        assert!(speedup < 2.1, "speedup {speedup:.2} is super-linear?");
    }

    #[test]
    fn roi_metrics_populated() {
        let res = run_tiny(Variant::Npu, 2, 100);
        for (i, m) in res.metrics.iter().enumerate() {
            assert!(m.cycles > 0, "core {i} measured nothing");
            assert!(m.ipc > 0.1 && m.ipc <= 1.0, "core {i} ipc = {}", m.ipc);
            assert!(m.icache_hit_pct > 90.0);
        }
    }

    #[test]
    fn sparse_and_dense_phase_a_are_equivalent() {
        // Same network, same noise: the CSR walk must produce the exact
        // same spike raster as the dense row walk, on 1 and 2 cores.
        for cores in [1u32, 2] {
            let net = tiny_net(20);
            let bias = vec![6.0; 20];
            let noise = vec![2.0; 20];
            let image = GuestImage::from_network(&net, &bias, &noise, 150, 11);
            let mut dense_cfg = EngineConfig::new(20, 150, cores, Variant::Npu);
            dense_cfg.sparse = false;
            let mut sparse_cfg = dense_cfg.clone();
            sparse_cfg.sparse = true;
            let a = run_workload(&dense_cfg, &image, 2_000_000_000).unwrap();
            let b = run_workload(&sparse_cfg, &image, 2_000_000_000).unwrap();
            let mut sa = a.raster.spikes.clone();
            let mut sb = b.raster.spikes.clone();
            sa.sort_unstable();
            sb.sort_unstable();
            assert_eq!(sa, sb, "{cores} cores");
        }
    }

    #[test]
    fn sparse_is_faster_on_sparse_networks() {
        // 4 % density: the CSR walk must beat the dense row walk clearly.
        let net = tiny_net(100); // ring: 1 edge per neuron
        let bias = vec![8.0; 100];
        let noise = vec![2.0; 100];
        let image = GuestImage::from_network(&net, &bias, &noise, 100, 3);
        let mut dense_cfg = EngineConfig::new(100, 100, 1, Variant::Npu);
        dense_cfg.sparse = false;
        let mut sparse_cfg = dense_cfg.clone();
        sparse_cfg.sparse = true;
        let a = run_workload(&dense_cfg, &image, 4_000_000_000).unwrap();
        let b = run_workload(&sparse_cfg, &image, 4_000_000_000).unwrap();
        assert!(!a.raster.spikes.is_empty());
        assert!(
            (b.cycles as f64) * 1.5 < a.cycles as f64,
            "sparse {} vs dense {} cycles",
            b.cycles,
            a.cycles
        );
    }

    #[test]
    fn relaxed_parallel_matches_relaxed_on_coupled_engine() {
        // The coupled engine barriers once per tick, so under the
        // relaxed scheduler nearly every quantum defers at a barrier
        // arrival, and the cores the completing arrival releases run in a
        // later wave of the same round. Several host threads must still
        // be bit-identical to one (`Relaxed`: spike-log order, relaxed
        // clock, instret), on even and odd core splits.
        use izhi_sim::{SchedMode, TimingModel};
        let net = tiny_net(20);
        let bias = vec![6.0; 20];
        let noise = vec![2.0; 20];
        let image = GuestImage::from_network(&net, &bias, &noise, 120, 11);
        for (cores, quantum) in [(2u32, 64u64), (3, 4096)] {
            let mut cfg = EngineConfig::new(20, 120, cores, Variant::Npu);
            cfg.system.sched = SchedMode::Relaxed {
                quantum,
                timing: TimingModel::Unit,
            };
            let relaxed = run_workload(&cfg, &image, 4_000_000_000).unwrap();
            assert!(!relaxed.raster.spikes.is_empty());
            for host_threads in [1u32, 2, 4] {
                cfg.system.sched = SchedMode::RelaxedParallel {
                    quantum,
                    host_threads,
                    timing: TimingModel::Unit,
                };
                let par = run_workload(&cfg, &image, 4_000_000_000).unwrap();
                let tag = format!("cores {cores} quantum {quantum} ht {host_threads}");
                assert_eq!(relaxed.raster.spikes, par.raster.spikes, "{tag}: spikes");
                assert_eq!(relaxed.cycles, par.cycles, "{tag}: cycles");
                assert_eq!(relaxed.instret, par.instret, "{tag}: instret");
            }
        }
    }

    #[test]
    fn scaled_layout_matches_standard_layout_raster() {
        // The same network run on 16 cores (scaled map: restacked scratch,
        // 16 core slots, CSR-only SDRAM) must reproduce the 4-core
        // standard-map raster bit for bit — the layout is addressing, not
        // physics.
        let net = tiny_net(320);
        let bias = vec![6.0; 320];
        let noise = vec![2.0; 320];
        let ticks = 120;
        let mut std_cfg = EngineConfig::new(320, ticks, 4, Variant::Npu);
        std_cfg.sparse = true;
        assert!(!std_cfg.layout().is_scaled());
        let std_img = GuestImage::from_network(&net, &bias, &noise, ticks, 11);
        let a = run_workload(&std_cfg, &std_img, 4_000_000_000).unwrap();

        let mut sc_cfg = EngineConfig::new(320, ticks, 16, Variant::Npu);
        sc_cfg.sparse = true;
        sc_cfg.fit_memory(net.n_synapses());
        let lay = sc_cfg.layout();
        assert!(lay.is_scaled());
        let sc_img = GuestImage::from_network_csr(&net, &bias, &noise, ticks, 11, &lay);
        let b = run_workload(&sc_cfg, &sc_img, 4_000_000_000).unwrap();

        assert!(!a.raster.spikes.is_empty());
        let mut sa = a.raster.spikes.clone();
        let mut sb = b.raster.spikes.clone();
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb, "scaled map changed the computation");
    }

    #[test]
    fn csr_native_image_matches_dense_image() {
        // Same standard-layout shape, CSR-native vs dense image: the guest
        // tables are built from different sources but must be identical.
        let net = tiny_net(64);
        let bias = vec![6.0; 64];
        let noise = vec![2.0; 64];
        let mut cfg = EngineConfig::new(64, 100, 2, Variant::Npu);
        cfg.sparse = true;
        let lay = cfg.layout();
        let dense = GuestImage::from_network(&net, &bias, &noise, 100, 7);
        let native = GuestImage::from_network_csr(&net, &bias, &noise, 100, 7, &lay);
        assert_eq!(dense.initial_weight_hash(), native.initial_weight_hash());
        let a = run_workload(&cfg, &dense, 2_000_000_000).unwrap();
        let b = run_workload(&cfg, &native, 2_000_000_000).unwrap();
        assert_eq!(a.raster.spikes, b.raster.spikes);
    }

    #[test]
    fn stdp_evolves_weights_identically_across_core_counts() {
        let net = tiny_net(60);
        let bias = vec![6.0; 60];
        let noise = vec![2.0; 60];
        let image = GuestImage::from_network(&net, &bias, &noise, 200, 11);
        let mut results = Vec::new();
        for cores in [1u32, 2, 3] {
            let mut cfg = EngineConfig::new(60, 200, cores, Variant::Npu);
            cfg.sparse = true;
            cfg.plastic = true;
            let initial = image.initial_weight_hash();
            let res = run_workload(&cfg, &image, 4_000_000_000).unwrap();
            assert!(!res.raster.spikes.is_empty());
            let hash = res.weight_hash.expect("plastic run must report weights");
            assert_ne!(hash, initial, "{cores} cores: no weight ever updated");
            results.push((res.raster_hash(), hash));
        }
        assert_eq!(results[0], results[1], "2 cores diverged");
        assert_eq!(results[0], results[2], "3 cores diverged");
    }

    #[test]
    fn non_plastic_runs_report_no_weight_hash() {
        let res = run_tiny(Variant::Npu, 1, 50);
        assert_eq!(res.weight_hash, None);
    }

    #[test]
    fn stimulus_injection_drives_a_quiet_network() {
        use izhi_sim::StimPlan;
        // No synapses, no bias, no noise: only the injected neurons may
        // fire, and without a plan nothing does.
        let params = vec![izhi_core::params::IzhParams::regular_spiking(); 40];
        let net = Network::from_edges(params, vec![]);
        let bias = vec![0.0; 40];
        let noise = vec![0.0; 40];
        let image = GuestImage::from_network(&net, &bias, &noise, 60, 5);
        let mut cfg = EngineConfig::new(40, 60, 2, Variant::Npu);
        cfg.stim = true;
        let quiet = run_workload(&cfg, &image, 2_000_000_000).unwrap();
        assert!(
            quiet.raster.spikes.is_empty(),
            "quiet net fired unstimulated"
        );
        let mut plan = StimPlan::none();
        for t in 10..16 {
            plan = plan.with(t, 0, 3).with(t, 1, 25); // chunk = 20
        }
        cfg.system.stim = plan;
        let res = run_workload(&cfg, &image, 2_000_000_000).unwrap();
        assert!(!res.raster.spikes.is_empty(), "stimulus had no effect");
        for &(t, n) in &res.raster.spikes {
            assert!(t >= 10, "spike before any injection at tick {t}");
            assert!(n == 3 || n == 25, "uninjected neuron {n} fired");
        }
    }

    #[test]
    fn stimulated_run_is_identical_across_schedulers() {
        use izhi_sim::{SchedMode, StimPlan, TimingModel};
        let net = tiny_net(40);
        let bias = vec![5.0; 40];
        let noise = vec![2.0; 40];
        let image = GuestImage::from_network(&net, &bias, &noise, 100, 9);
        let mut cfg = EngineConfig::new(40, 100, 2, Variant::Npu);
        cfg.stim = true;
        let mut plan = StimPlan::none();
        let mut x = 9u32;
        for t in 0..100u32 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let neuron = x % 40;
            plan = plan.with(t, neuron / 20, neuron);
        }
        cfg.system.stim = plan;
        let exact = run_workload(&cfg, &image, 4_000_000_000).unwrap();
        assert!(!exact.raster.spikes.is_empty());
        let mut hashes = vec![exact.raster_hash()];
        cfg.system.sched = SchedMode::Relaxed {
            quantum: 50_000,
            timing: TimingModel::Unit,
        };
        hashes.push(
            run_workload(&cfg, &image, 4_000_000_000)
                .unwrap()
                .raster_hash(),
        );
        for host_threads in [1u32, 2, 4] {
            cfg.system.sched = SchedMode::RelaxedParallel {
                quantum: 50_000,
                host_threads,
                timing: TimingModel::Unit,
            };
            hashes.push(
                run_workload(&cfg, &image, 4_000_000_000)
                    .unwrap()
                    .raster_hash(),
            );
        }
        assert!(
            hashes.iter().all(|&h| h == hashes[0]),
            "stimulated run diverged across schedulers: {hashes:?}"
        );
    }

    #[test]
    fn three_core_odd_split_works() {
        // 20 neurons over 3 cores: chunks 7/7/6.
        let res = run_tiny(Variant::Npu, 3, 100);
        assert!(!res.raster.spikes.is_empty());
        let r1 = run_tiny(Variant::Npu, 1, 100);
        let mut a = res.raster.spikes.clone();
        let mut b = r1.raster.spikes.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
