//! `perf_baseline` — the repo's reproducible simulator-throughput
//! measurement and CI perf-regression gate.
//!
//! Every workload is built through the scenario registry
//! (`izhi_programs::scenario`), so these rows and the CLI/tests/benches
//! all measure the same definitions. Four kinds of rows:
//!
//! * **Workload battery** (self-test, 80-20 at quick/paper scale, the
//!   barrier-light 80-20 sweep, an eased Sudoku instance — on 1 and 2
//!   cores): host wall time plus simulated cycles/s and instructions/s on
//!   the live `izhi_sim`.
//! * **Seed-vs-live comparison**: selected rows run again on the frozen
//!   seed interpreter (`izhi_bench::seedsim`), *interleaved* with the live
//!   ones in the same process and repeated `REPS` times per session (best
//!   run kept), so the reported speedups are immune to host-speed drift
//!   between measurement sessions. Each single-core workload produces a
//!   headline row (superblocks + assembler relaxation on — the shipping
//!   configuration), a `_norelax` diagnostic row (relaxation off) and a
//!   `_nosb` diagnostic row (superblocks off). The `_norelax` row must
//!   agree with the seed bit- and cycle-exactly (cycles, instret, full
//!   packed spike log) — relaxation is the *only* thing allowed to change
//!   the instruction stream. The headline row must reproduce the seed's
//!   spike log word for word (raster timestamps are simulation ticks, so
//!   relaxation cannot move them) while retiring strictly fewer
//!   instructions; the `_nosb` row must be bit-identical to the headline
//!   row (superblock fusion is dispatch-only, never semantic). Dual-core
//!   rows must agree on the *spike raster as a set*: the seed's
//!   multi-core scheduler batches eight steps per pick, so its interleaving
//!   (and therefore cycle/spin counts and log order) differs from both the
//!   live exact schedule and the relaxed one — the physics may not.
//! * **Scheduling-mode rows**: dual-core workloads are measured under the
//!   exact scheduler (`*_exact`, cycle-faithful, fused two-core loop) *and*
//!   under `SchedMode::Relaxed` (the headline `*_2core` rows — the
//!   configuration multi-core sweeps actually use). Relaxed rows report
//!   the relaxed clock (one cycle per instruction); their rasters are
//!   asserted identical to the exact rows'.
//!
//! * **Scenario battery**: every scenario in the
//!   `izhi_programs::scenario` registry at its quick parameters, fanned
//!   over its battery seeds × every sched × timing combination ({exact,
//!   relaxed, relaxed-par} under Unit timing plus {relaxed-est,
//!   relaxed-par-est} under Estimated timing) via
//!   [`izhi_bench::battery::BatteryRunner`]. Each row records the
//!   order-independent raster hash, the clock it was measured on and its
//!   self-verification outcome; cross-mode hash identity is asserted
//!   before the rows are written. From the battery, an
//!   `estimated_accuracy` section reports each scenario's estimated-vs-
//!   exact simulated-cycle ratio (summed over battery seeds) — the
//!   figure that makes relaxed rows comparable to exact rows on
//!   simulated time, bounded by the CI gate.
//!
//! * **Service burst**: an in-process scenario service
//!   (`izhi_bench::serve`) takes a burst of tiny jobs — two of them
//!   deliberately faulty (host panic, guest trap) — through a small
//!   bounded queue. The `service` section records the observed
//!   throughput plus the guarantee booleans (health availability,
//!   hinted backpressure, failure isolation); the gate requires the
//!   booleans and forward progress, never an absolute jobs/s.
//!
//! * **Template throughput**: the repeat-seed quick battery — every
//!   scenario at its first battery seed, short service-shaped jobs —
//!   timed twice in-process: cold-building every run vs instantiating
//!   from the (initially cleared) template cache
//!   (`izhi_programs::template`). Per-run raster-hash/cycle/instret
//!   identity between the arms is asserted before timing is reported;
//!   the `battery_throughput` section records both arms' runs/s and
//!   their ratio, which the gate floors (a same-host ratio, so it is not
//!   a runner speed lottery).
//!
//! ```text
//! cargo run --release --bin perf_baseline -- [out.json] [--check baseline.json]
//! ```
//!
//! Writes `BENCH_9.json` (or the given path) through the workspace's JSON
//! codec. With `--check`, the document just written is gated against the
//! committed baseline by the rule table [`izhi_bench::gate::RULES`] (the
//! CI perf-regression gate), and the run exits non-zero if any rule
//! fails. `BENCH_CMP_ONLY=1` runs only the interleaved seed-vs-live rows
//! and gates only their sections ([`izhi_bench::gate::CMP_ONLY_SECTIONS`]).

use std::time::Instant;

use izhi_bench::battery::{self, BatteryRow, BatteryRunner, BatterySpec};
use izhi_bench::json::{self, Value};
use izhi_bench::serve;
use izhi_bench::{gate, seedsim};
use izhi_isa::Assembler;
use izhi_programs::engine::{build_asm, run_workload, EngineConfig, GuestImage, WorkloadResult};
use izhi_programs::scenario::{self, ScenarioParams, Workload};
use izhi_programs::sudoku_prog::SudokuWorkload;
use izhi_programs::template;
use izhi_programs::{layout, selftest};
use izhi_sim::{SchedMode, System, SystemConfig};

/// Interleaved repetitions per comparison session.
const REPS: usize = 5;
/// Comparison sessions per workload (the best session's rows are kept;
/// host-speed drift on this shared VM makes single sessions undershoot).
const SESSIONS: usize = 5;
/// Interleaved repetitions for the (expensive) Sudoku rows.
const SUDOKU_REPS: usize = 3;

/// One measured workload.
struct Row {
    name: String,
    /// Scheduling mode annotation: "exact", "relaxed", "relaxed-par" or
    /// "seed".
    sched: &'static str,
    /// Host threads driving the simulation (1 for every sequential
    /// scheduler; the forced worker count for `relaxed-par` rows, so the
    /// row stays interpretable on single-CPU CI runners).
    host_threads: u32,
    wall_s: f64,
    sim_cycles: u64,
    sim_instret: u64,
    spikes: u64,
    /// Full packed spike log (`t<<16|neuron` words) for exactness checks;
    /// empty for rows that don't compare rasters.
    spike_log: Vec<u32>,
}

impl Row {
    fn cycles_per_s(&self) -> f64 {
        self.sim_cycles as f64 / self.wall_s
    }

    fn instr_per_s(&self) -> f64 {
        self.sim_instret as f64 / self.wall_s
    }

    fn json(&self) -> Value {
        Value::object([
            ("name", self.name.as_str().into()),
            ("sched", self.sched.into()),
            ("host_threads", self.host_threads.into()),
            ("wall_s", Value::decimal(self.wall_s, 6)),
            ("sim_cycles", self.sim_cycles.into()),
            ("sim_instret", self.sim_instret.into()),
            ("spikes", self.spikes.into()),
            ("sim_cycles_per_s", Value::decimal(self.cycles_per_s(), 0)),
            ("sim_instr_per_s", Value::decimal(self.instr_per_s(), 0)),
        ])
    }

    fn keep_best(self, best: &mut Option<Row>) {
        if best.as_ref().is_none_or(|b| self.wall_s < b.wall_s) {
            *best = Some(self);
        }
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

fn sorted(log: &[u32]) -> Vec<u32> {
    let mut s = log.to_vec();
    s.sort_unstable();
    s
}

fn packed_log(res: &WorkloadResult) -> Vec<u32> {
    res.raster
        .spikes
        .iter()
        .map(|&(t, n)| izhi_snn::analysis::SpikeRaster::pack(t, n))
        .collect()
}

/// Build a measurement row from a timed live-interpreter run.
fn row_from(
    name: &str,
    sched: &'static str,
    host_threads: u32,
    wall_s: f64,
    res: &WorkloadResult,
) -> Row {
    Row {
        name: name.into(),
        sched,
        host_threads,
        wall_s,
        sim_cycles: res.cycles,
        sim_instret: res.instret,
        spikes: res.raster.spikes.len() as u64,
        spike_log: packed_log(res),
    }
}

fn selftest_row() -> Row {
    let prog = Assembler::new()
        .assemble(&selftest::battery_asm())
        .expect("battery assembles");
    let (wall_s, (exit, failures)) = time(|| {
        let mut sys = System::new(SystemConfig::default());
        assert!(sys.load_program(&prog));
        let exit = sys.run(50_000_000).expect("battery run");
        let failures = sys
            .console()
            .lines()
            .last()
            .and_then(|l| l.trim().parse::<u32>().ok())
            .unwrap_or(u32::MAX);
        (exit, failures)
    });
    assert_eq!(failures, 0, "guest self-test battery failed");
    Row {
        name: "selftest_battery".into(),
        sched: "exact",
        host_threads: 1,
        wall_s,
        sim_cycles: exit.cycles,
        sim_instret: exit.instret,
        spikes: 0,
        spike_log: Vec::new(),
    }
}

/// Mirror of `GuestImage::load_into` against the frozen seed system
/// (dense NPU variant only — the configuration the comparison rows use).
fn load_image_seed(sys: &mut seedsim::System, image: &GuestImage) {
    let mem = &mut sys.shared_mut().mem;
    for (i, p) in image.params.iter().enumerate() {
        let (rs1, rs2) = p.pack();
        mem.write_u32(layout::PARAMS + 8 * i as u32, rs1);
        mem.write_u32(layout::PARAMS + 8 * i as u32 + 4, rs2);
    }
    for (i, &vu) in image.init_vu.iter().enumerate() {
        mem.write_u32(layout::VU + 4 * i as u32, vu);
        mem.write_u32(layout::ISYN + 4 * i as u32, 0);
    }
    for (i, &w) in image.weights_q.iter().enumerate() {
        mem.write_u16(layout::WEIGHTS + 2 * i as u32, w as u16);
    }
    for (i, &x) in image.noise_q.iter().enumerate() {
        mem.write_u16(layout::NOISE + 2 * i as u32, x as u16);
    }
}

fn seed_config(cfg: &SystemConfig) -> seedsim::SystemConfig {
    seedsim::SystemConfig {
        n_cores: cfg.n_cores,
        clock_hz: cfg.clock_hz,
        sdram_size: cfg.sdram_size,
        scratch_size: cfg.scratch_size,
        icache: seedsim::cache::CacheConfig {
            size_bytes: cfg.icache.size_bytes,
            line_bytes: cfg.icache.line_bytes,
        },
        dcache: seedsim::cache::CacheConfig {
            size_bytes: cfg.dcache.size_bytes,
            line_bytes: cfg.dcache.line_bytes,
        },
        bus: seedsim::bus::BusTimings {
            first_word: cfg.bus.first_word,
            per_word: cfg.bus.per_word,
        },
        div_latency: cfg.div_latency,
        csr_writeback: cfg.csr_writeback,
        rng_seed: cfg.rng_seed,
    }
}

/// One timed run of a workload on the frozen seed interpreter (assembly,
/// system construction and image load are inside the timed region, exactly
/// like the live side's `wl.run()`).
fn seed_run(name: &str, asm: &str, cfg: &EngineConfig, image: &GuestImage) -> Row {
    let (wall_s, (exit, spike_log)) = time(|| {
        let prog = Assembler::new().assemble(asm).expect("engine assembles");
        let mut sys = seedsim::System::new(seed_config(&cfg.system));
        assert!(sys.load_program(&prog));
        load_image_seed(&mut sys, image);
        let exit = sys.run(8_000_000_000).expect("seed run");
        let spike_log = sys.shared().dev.spike_log.clone();
        (exit, spike_log)
    });
    Row {
        name: format!("{name}_seed"),
        sched: "seed",
        host_threads: 1,
        wall_s,
        sim_cycles: exit.cycles,
        sim_instret: exit.instret,
        spikes: spike_log.len() as u64,
        spike_log,
    }
}

/// One timed run on the live interpreter under the workload's configured
/// scheduling mode.
fn live_run(name: &str, sched: &'static str, wl: &dyn Workload) -> Row {
    let (wall_s, res) = time(|| wl.run().expect("live run"));
    row_from(name, sched, 1, wall_s, &res)
}

/// Build a registered scenario (the only workload-construction path this
/// binary uses).
fn build_scenario(name: &str, params: ScenarioParams) -> Box<dyn Workload> {
    scenario::find(name)
        .unwrap_or_else(|| panic!("scenario `{name}` is not registered"))
        .build(&params)
}

fn engine_asm(cfg: &EngineConfig) -> String {
    let decay = (1.0 - 0.5 / cfg.tau as f64) as f32;
    format!(".equ DECAY_F32, {:#x}\n{}", decay.to_bits(), build_asm(cfg))
}

/// Interleaved seed-vs-live measurement of one single-core 80-20 setup.
/// Returns `(seed, live, norelax, nosb)` rows, each the best of [`REPS`]
/// runs:
///
/// * `live` — the headline shipping configuration (superblocks + assembler
///   relaxation on, set explicitly like every row's configuration).
/// * `norelax` — relaxation off, superblocks on. Must match the seed
///   interpreter bit- and cycle-exactly (cycles, instret, full packed
///   spike log): the superblock interpreter alone is semantics- and
///   timing-transparent, and relaxation is the only pass allowed to
///   change the instruction stream.
/// * `nosb` — relaxation on, superblocks off. Must be bit-identical to
///   the headline row: block fusion is a dispatch optimisation only.
///
/// The headline row itself must reproduce the seed's spike log word for
/// word (raster timestamps are simulation ticks — relaxation cannot move
/// a spike) while retiring strictly fewer instructions.
///
/// Two further rows measure the relaxed single-core configuration (the
/// one kernel batches engage under): `relaxed` — `SchedMode::Relaxed`
/// with kernel offload on — and `relaxed_nokernel` — identical but with
/// kernels forced off. The `relaxed` row must still reproduce the seed's
/// spike log word for word (relaxed timing changes the clock, never a
/// raster tick), and the `nokernel` row must be bit-identical to the
/// `relaxed` one (cycles, instret, full spike log): kernel offload is a
/// dispatch optimisation, never a semantic one.
struct CmpRows1 {
    seed: Row,
    live: Row,
    norelax: Row,
    nosb: Row,
    relaxed: Row,
    nokernel: Row,
}

fn compare_rows_1core(name: &str, n: usize, ticks: u32) -> CmpRows1 {
    let params = ScenarioParams::default()
        .with_n(n)
        .with_ticks(ticks)
        .with_cores(1)
        .with_seed(5);
    let configure = |relax: bool, superblocks: bool, sched: SchedMode, kernels: bool| {
        let mut wl = build_scenario("net8020", params);
        wl.cfg_mut().system.asm_relax = relax;
        wl.cfg_mut().system.superblocks = superblocks;
        wl.cfg_mut().system.sched = sched;
        wl.cfg_mut().system.kernels = kernels;
        wl
    };
    let wl = configure(true, true, SchedMode::Exact, true);
    let wl_norelax = configure(false, true, SchedMode::Exact, true);
    let wl_nosb = configure(true, false, SchedMode::Exact, true);
    let wl_relaxed = configure(true, true, SchedMode::relaxed(), true);
    let wl_nokernel = configure(true, true, SchedMode::relaxed(), false);
    let asm = engine_asm(wl.cfg());
    let mut seed_best: Option<Row> = None;
    let mut live_best: Option<Row> = None;
    let mut norelax_best: Option<Row> = None;
    let mut nosb_best: Option<Row> = None;
    let mut relaxed_best: Option<Row> = None;
    let mut nokernel_best: Option<Row> = None;
    for _ in 0..REPS {
        let seed = seed_run(name, &asm, wl.cfg(), wl.image());
        let live = live_run(name, "exact", &*wl);
        let norelax = live_run(&format!("{name}_norelax"), "exact", &*wl_norelax);
        let nosb = live_run(&format!("{name}_nosb"), "exact", &*wl_nosb);
        let relaxed = live_run(&format!("{name}_relaxed"), "relaxed", &*wl_relaxed);
        let nokernel = live_run(
            &format!("{name}_relaxed_nokernel"),
            "relaxed",
            &*wl_nokernel,
        );
        // Relaxation off => bit- and cycle-exact vs the seed interpreter:
        // same cycles, same retired instructions, and the *full* packed
        // spike log word for word.
        assert_eq!(
            seed.sim_cycles, norelax.sim_cycles,
            "{name}: cycle drift (relax off)"
        );
        assert_eq!(
            seed.sim_instret, norelax.sim_instret,
            "{name}: instret drift (relax off)"
        );
        assert_eq!(
            seed.spike_log, norelax.spike_log,
            "{name}: raster drift (relax off)"
        );
        // Headline (relaxed) row: identical physics, strictly fewer
        // retired instructions.
        assert_eq!(
            seed.spike_log, live.spike_log,
            "{name}: relaxation moved a spike"
        );
        assert!(
            live.sim_instret < seed.sim_instret,
            "{name}: relaxation saved no instructions ({} vs seed {})",
            live.sim_instret,
            seed.sim_instret
        );
        // Superblocks off => bit-identical to the headline row.
        assert_eq!(
            live.sim_cycles, nosb.sim_cycles,
            "{name}: superblocks changed the cycle count"
        );
        assert_eq!(
            live.sim_instret, nosb.sim_instret,
            "{name}: superblocks changed instret"
        );
        assert_eq!(
            live.spike_log, nosb.spike_log,
            "{name}: superblocks changed the spike log"
        );
        // Relaxed row: same physics as the seed (raster ticks cannot
        // move), same retired stream as the exact headline row.
        assert_eq!(
            seed.spike_log, relaxed.spike_log,
            "{name}: relaxed scheduling moved a spike"
        );
        assert_eq!(
            live.sim_instret, relaxed.sim_instret,
            "{name}: relaxed scheduling changed instret"
        );
        // Kernels off => bit-identical to the kernel-on relaxed row.
        assert_eq!(
            relaxed.sim_cycles, nokernel.sim_cycles,
            "{name}: kernel offload changed the cycle count"
        );
        assert_eq!(
            relaxed.sim_instret, nokernel.sim_instret,
            "{name}: kernel offload changed instret"
        );
        assert_eq!(
            relaxed.spike_log, nokernel.spike_log,
            "{name}: kernel offload changed the spike log"
        );
        seed.keep_best(&mut seed_best);
        live.keep_best(&mut live_best);
        norelax.keep_best(&mut norelax_best);
        nosb.keep_best(&mut nosb_best);
        relaxed.keep_best(&mut relaxed_best);
        nokernel.keep_best(&mut nokernel_best);
    }
    CmpRows1 {
        seed: seed_best.unwrap(),
        live: live_best.unwrap(),
        norelax: norelax_best.unwrap(),
        nosb: nosb_best.unwrap(),
        relaxed: relaxed_best.unwrap(),
        nokernel: nokernel_best.unwrap(),
    }
}

/// Interleaved seed-vs-live measurement of the dual-core 80-20 setup:
/// seed (its own 8-step-batch scheduler), live exact (fused two-core
/// loop) and live relaxed (the headline multi-core configuration) run
/// back-to-back each rep. All three must produce the identical spike
/// raster *as a set*; cycle counts legitimately differ between the three
/// schedules and are reported per row.
fn compare_rows_2core(name: &str, n: usize, ticks: u32) -> (Row, Row, Row) {
    let params = ScenarioParams::default()
        .with_n(n)
        .with_ticks(ticks)
        .with_cores(2)
        .with_seed(5);
    let exact_wl = build_scenario("net8020", params);
    let mut relaxed_wl = build_scenario("net8020", params);
    relaxed_wl.cfg_mut().system.sched = SchedMode::relaxed();
    let asm = engine_asm(exact_wl.cfg());
    let mut seed_best: Option<Row> = None;
    let mut relaxed_best: Option<Row> = None;
    let mut exact_best: Option<Row> = None;
    for _ in 0..REPS {
        let seed = seed_run(name, &asm, exact_wl.cfg(), exact_wl.image());
        let relaxed = live_run(name, "relaxed", &*relaxed_wl);
        let exact = live_run(&format!("{name}_exact"), "exact", &*exact_wl);
        let reference = sorted(&seed.spike_log);
        assert_eq!(
            reference,
            sorted(&relaxed.spike_log),
            "{name}: relaxed raster drift"
        );
        assert_eq!(
            reference,
            sorted(&exact.spike_log),
            "{name}: exact raster drift"
        );
        seed.keep_best(&mut seed_best);
        relaxed.keep_best(&mut relaxed_best);
        exact.keep_best(&mut exact_best);
    }
    (
        seed_best.unwrap(),
        relaxed_best.unwrap(),
        exact_best.unwrap(),
    )
}

/// Barrier-light 80-20 sweep: one independent population per core, no
/// per-tick barriers. The dual-core relaxed row is the showcase
/// configuration; the single-core exact row (same block-diagonal image in
/// one chunk) is its reference; the `relaxed-par` row runs the identical
/// workload under `SchedMode::RelaxedParallel` with **2 host threads
/// forced** (recorded in the row), so the threaded path is measured — and
/// its results pinned — even on single-CPU CI runners. Rasters must match
/// across all three; the parallel row must additionally reproduce the
/// relaxed row's spike log, cycles and instret *exactly* (the scheduler's
/// bit-identity contract).
fn sweep_rows(name: &str, n_per_core: usize, ticks: u32) -> (Row, Row, Row) {
    const SWEEP_HOST_THREADS: u32 = 2;
    let params = ScenarioParams::default()
        .with_n(n_per_core)
        .with_ticks(ticks)
        .with_cores(2)
        .with_seed(5);
    let wl = build_scenario("net8020_sweep", params);
    let mut relaxed = build_scenario("net8020_sweep", params);
    relaxed.cfg_mut().system.sched = SchedMode::relaxed();
    let mut parallel = build_scenario("net8020_sweep", params);
    parallel.cfg_mut().system.sched = SchedMode::RelaxedParallel {
        quantum: SchedMode::DEFAULT_QUANTUM,
        host_threads: SWEEP_HOST_THREADS,
        timing: izhi_sim::TimingModel::Unit,
    };
    let mut one_cfg = wl.cfg().clone();
    one_cfg.n_cores = 1;
    one_cfg.system.n_cores = 1;
    let mut one_best: Option<Row> = None;
    let mut two_best: Option<Row> = None;
    let mut par_best: Option<Row> = None;
    for _ in 0..REPS {
        let (wall_s, res1) =
            time(|| run_workload(&one_cfg, wl.image(), 8_000_000_000).expect("sweep 1-core run"));
        let one = row_from(&format!("{name}_1core"), "exact", 1, wall_s, &res1);
        let (wall_s, res2) = time(|| relaxed.run().expect("sweep 2-core run"));
        let two = row_from(&format!("{name}_2core"), "relaxed", 1, wall_s, &res2);
        let (wall_s, res3) = time(|| parallel.run().expect("sweep 2-core parallel run"));
        let par = row_from(
            &format!("{name}_2core_par"),
            "relaxed-par",
            SWEEP_HOST_THREADS,
            wall_s,
            &res3,
        );
        assert_eq!(
            sorted(&one.spike_log),
            sorted(&two.spike_log),
            "{name}: partitioning changed the sweep raster"
        );
        // Bit-identity of the threaded scheduler vs the sequential relaxed
        // one: same spike log (order included), same relaxed clock, same
        // retired instructions.
        assert_eq!(
            two.spike_log, par.spike_log,
            "{name}: parallel scheduling changed the spike log"
        );
        assert_eq!(
            two.sim_cycles, par.sim_cycles,
            "{name}: parallel scheduling changed the cycle count"
        );
        assert_eq!(
            two.sim_instret, par.sim_instret,
            "{name}: parallel scheduling changed instret"
        );
        one.keep_best(&mut one_best);
        two.keep_best(&mut two_best);
        par.keep_best(&mut par_best);
    }
    (one_best.unwrap(), two_best.unwrap(), par_best.unwrap())
}

/// The quick-scale instance of the paper's Table VI flow: one hard puzzle
/// eased by restoring half the blanks, 2500-tick budget. Returns the
/// single-core exact row, the dual-core relaxed row and the dual-core
/// exact row, interleaved best-of-[`SUDOKU_REPS`]; all rasters must match.
fn sudoku_rows() -> (Row, Row, Row) {
    let run_one = |name: &str, sched: &'static str, cores: u32, mode: SchedMode| -> Row {
        let mut wl = build_scenario(
            "sudoku",
            ScenarioParams::default()
                .with_ticks(2500)
                .with_cores(cores)
                .with_seed(100),
        );
        wl.cfg_mut().system.sched = mode;
        let sudoku = wl
            .as_any()
            .downcast_ref::<SudokuWorkload>()
            .expect("sudoku wraps SudokuWorkload");
        let (wall_s, res) = time(|| sudoku.solve(50).expect("sudoku run"));
        row_from(name, sched, 1, wall_s, &res.workload)
    };
    let mut one_best: Option<Row> = None;
    let mut relaxed_best: Option<Row> = None;
    let mut exact_best: Option<Row> = None;
    for _ in 0..SUDOKU_REPS {
        let one = run_one("sudoku_quick_1core", "exact", 1, SchedMode::Exact);
        let relaxed = run_one("sudoku_quick_2core", "relaxed", 2, SchedMode::relaxed());
        let exact = run_one("sudoku_quick_2core_exact", "exact", 2, SchedMode::Exact);
        let reference = sorted(&one.spike_log);
        assert_eq!(
            reference,
            sorted(&relaxed.spike_log),
            "sudoku relaxed raster drift"
        );
        assert_eq!(
            reference,
            sorted(&exact.spike_log),
            "sudoku exact raster drift"
        );
        one.keep_best(&mut one_best);
        relaxed.keep_best(&mut relaxed_best);
        exact.keep_best(&mut exact_best);
    }
    (
        one_best.unwrap(),
        relaxed_best.unwrap(),
        exact_best.unwrap(),
    )
}

/// The document's `methodology` string.
fn methodology() -> String {
    format!(
        "seed rows: frozen seed interpreter, interleaved with live rows in-process, best of {REPS} reps x {SESSIONS} sessions; 1-core workloads produce a headline row (superblock interpreter + assembler relaxation on), a _norelax diagnostic row (relaxation off; asserted cycle/instret/spike-log identical to the seed — the superblock interpreter is timing-transparent) and a _nosb diagnostic row (superblocks off; asserted bit-identical to the headline row — fusion is dispatch-only), a _relaxed row (SchedMode::Relaxed with kernel offload on — the configuration relaxed sweeps ship; asserted seed spike-log word identity and headline-row instret identity) and a _relaxed_nokernel row (kernels forced off; asserted cycle/instret/spike-log bit-identical to the _relaxed row — kernel offload is dispatch-only); the headline row asserts seed spike-log word identity plus strictly fewer retired instructions; instret_reduction records the headline row's fractional instret saving vs the seed (deterministic, gated on the quick row); 2-core rows assert spike-raster set identity across seed/exact/relaxed schedules; relaxed rows run SchedMode::Relaxed (clock = 1 cycle per instruction, blocking barriers) and report that clock; relaxed-par rows run SchedMode::RelaxedParallel with the recorded host_threads forced and assert spike-log/cycle/instret bit-identity with the relaxed row (host_threads on sequential rows is 1); battery rows: every registered scenario at quick scale, seeds x (sched x timing) combinations sharded across host threads, raster-hash identity asserted across all combinations and each scenario's verification hook recorded; plastic (STDP) rows additionally record an order-independent hash of the final weight state, asserted bit-identical across all combinations; timing records the row's clock (exact = cycle-accurate, unit = 1 cycle/instruction, estimated = static per-op-class CostTable costs); estimated_accuracy: per scenario, estimated-vs-exact sim-cycle ratio summed over battery seeds (the gate bounds it); service: in-process scenario-service burst (bounded queue, supervised workers, two injected faults) — the gate requires health_ok/backpressure_hinted/failure_isolated and positive throughput, never an absolute jobs/s; battery_throughput: the repeat-seed quick battery (every scenario, first battery seed, {THROUGHPUT_TICKS}-tick service-shaped jobs, {THROUGHPUT_REPEATS} repeats) timed twice in-process — cold-building every run vs instantiating from the initially cleared template cache — with per-run hash/cycle/instret identity asserted between the arms; the gate requires cached/cold >= the floor (a same-host ratio, not an absolute runs/s)"
    )
}

/// Run the quick scenario battery: every registered scenario, its battery
/// seeds × {exact, relaxed, relaxed-par(2 host threads)}, sharded across
/// host worker threads. Cross-mode raster-hash identity and per-row
/// verification are asserted before the rows are reported.
fn battery_rows() -> Vec<BatteryRow> {
    const BATTERY_HOST_THREADS: u32 = 2;
    let specs: Vec<BatterySpec> = scenario::registry()
        .iter()
        .map(|s| BatterySpec::quick(s, BATTERY_HOST_THREADS))
        .collect();
    let rows = BatteryRunner::auto()
        .run(&specs)
        .expect("battery run failed");
    if let Err(e) = battery::check_rows(&rows) {
        eprintln!("{}", battery::rows_table(&rows));
        panic!("scenario battery failed: {e}");
    }
    rows
}

/// Per-scenario estimated-vs-exact simulated-cycle ratio, from the
/// battery rows: `sum(relaxed-est cycles) / sum(exact cycles)` over each
/// scenario's battery seeds (summing makes the ratio seed-stable). The
/// sequential estimated rows are used — `relaxed-par-est` is bit-identical
/// to them by the scheduler contract, so it would add nothing.
fn estimated_accuracy(battery: &[BatteryRow]) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    for row in battery {
        if row.sched != "exact" || out.iter().any(|(n, _)| *n == row.scenario) {
            continue;
        }
        let sum = |sched: &str| -> u64 {
            battery
                .iter()
                .filter(|r| r.scenario == row.scenario && r.sched == sched)
                .map(|r| r.sim_cycles)
                .sum()
        };
        let (exact, est) = (sum("exact"), sum("relaxed-est"));
        if exact > 0 && est > 0 {
            out.push((row.scenario.clone(), est as f64 / exact as f64));
        }
    }
    out
}

/// Number of jobs in the service burst (queue cap 8, 2 workers — far
/// past capacity, so backpressure must fire).
const SERVICE_BURST_JOBS: usize = 40;

/// Run the in-process service burst (see [`serve::service_benchmark`])
/// and return the document's `service` section.
fn service_section() -> Value {
    let s = serve::service_benchmark(SERVICE_BURST_JOBS).expect("service burst failed");
    println!(
        "service burst: {} jobs -> {} accepted / {} backpressured, \
         {} completed + {} structured failures, {:.1} jobs/s, health {}/{}, isolation {}",
        s.submitted,
        s.accepted,
        s.rejected,
        s.completed,
        s.failed,
        s.throughput_jobs_per_s,
        s.health_ok,
        s.health_checks,
        serve::failure_isolated(&s),
    );
    Value::object([
        ("jobs", s.submitted.into()),
        ("accepted", s.accepted.into()),
        ("rejected", s.rejected.into()),
        ("completed", s.completed.into()),
        ("failed", s.failed.into()),
        (
            "throughput_jobs_per_s",
            Value::decimal(s.throughput_jobs_per_s, 2),
        ),
        ("health_ok", (s.health_ok == s.health_checks).into()),
        ("backpressure_hinted", s.backpressure_hinted.into()),
        ("failure_isolated", serve::failure_isolated(&s).into()),
    ])
}

/// Repeats per scenario and arm of the template-throughput experiment.
/// The cached arm pays one template build (the cache is cleared first)
/// plus `THROUGHPUT_REPEATS` instantiations; more repeats amortise the
/// build further, fewer keep the experiment honest about it.
const THROUGHPUT_REPEATS: usize = 6;
/// Tick budget of the experiment's service-shaped jobs. Short runs are
/// the regime run templates exist for — a service stamping out many
/// small jobs of one shape — and they keep guest execution time from
/// drowning the build cost under measurement. The quick battery itself
/// (longer runs, build cost amortised anyway) is gated elsewhere.
const THROUGHPUT_TICKS: u32 = 25;

/// Repeat-seed job shape for one scenario: quick parameters with the
/// throughput tick budget and the scenario's first battery seed pinned.
fn throughput_params(sc: &scenario::Scenario) -> ScenarioParams {
    ScenarioParams::default()
        .with_ticks(THROUGHPUT_TICKS)
        .with_seed(sc.battery_seeds[0])
}

/// Measure the repeat-seed quick battery twice — cold-building every run
/// vs instantiating from the (initially cleared) template cache — and
/// assert the two arms bit-identical per run before reporting runs/s in
/// the document's `battery_throughput` section.
fn battery_throughput() -> Value {
    let registry = scenario::registry();
    let mut cold_results: Vec<(&str, u64, u64, u64)> = Vec::new();
    let (cold_s, ()) = time(|| {
        for sc in registry {
            let over = throughput_params(sc);
            for _ in 0..THROUGHPUT_REPEATS {
                let wl = sc.build_quick(&over);
                let res = wl.run_cold().expect("cold throughput run");
                cold_results.push((sc.name, res.raster_hash(), res.cycles, res.instret));
            }
        }
    });
    template::clear_cache();
    let mut cached_results: Vec<(&str, u64, u64, u64)> = Vec::new();
    let (cached_s, ()) = time(|| {
        for sc in registry {
            let over = throughput_params(sc);
            for _ in 0..THROUGHPUT_REPEATS {
                let (inst, _) = template::instance(sc, &over, true, SchedMode::Exact);
                let res = inst.run().expect("cached throughput run");
                cached_results.push((sc.name, res.raster_hash(), res.cycles, res.instret));
            }
        }
    });
    assert_eq!(
        cold_results, cached_results,
        "template instantiation drifted from the cold build"
    );
    let runs = cold_results.len();
    let (cold, cached) = (runs as f64 / cold_s, runs as f64 / cached_s);
    println!(
        "battery throughput ({runs} runs of {THROUGHPUT_TICKS}-tick repeat-seed jobs per arm): \
         cold {cold:.1} runs/s, template-cached {cached:.1} runs/s, speedup {:.2}x",
        cached / cold,
    );
    Value::object([
        ("runs", runs.into()),
        ("ticks", THROUGHPUT_TICKS.into()),
        ("repeats", THROUGHPUT_REPEATS.into()),
        ("cold_runs_per_s", Value::decimal(cold, 2)),
        ("cached_runs_per_s", Value::decimal(cached, 2)),
        ("speedup", Value::decimal(cached / cold, 3)),
    ])
}

/// Gate the written document against the baseline file with
/// [`gate::RULES`] (only the seed-comparison sections under
/// `BENCH_CMP_ONLY`), reading the baseline once and printing one report.
fn check(doc: &Value, baseline_path: &str, cmp_only: bool) -> bool {
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|text| json::parse(&text));
    let baseline = match baseline {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            return false;
        }
    };
    let checks = gate::RULES
        .iter()
        .filter(|c| !cmp_only || gate::CMP_ONLY_SECTIONS.contains(&c.section));
    let outcomes = gate::evaluate(doc, &baseline, checks);
    let failed = outcomes.iter().filter(|o| !o.passed).count();
    println!(
        "\nperf gate vs {baseline_path}: {} outcomes, {failed} failed",
        outcomes.len()
    );
    for o in &outcomes {
        // Passing presence and boolean outcomes are counted, not listed.
        if !o.passed || !matches!(o.rule, "keys_present" | "all_true") {
            println!("  {o}");
        }
    }
    failed == 0
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check_path = args.next(),
            // Reject unknown flags loudly: a typoed `--check` silently
            // consumed as the output path would disable the CI gate while
            // staying green.
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`; usage: perf_baseline [out.json] [--check baseline.json]");
                std::process::exit(2);
            }
            _ => out_path = Some(arg),
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_9.json".into());

    // BENCH_CMP_ONLY=1 runs just the interleaved seed-vs-live rows (fast
    // inner loop for performance work on the interpreter itself).
    let cmp_only = std::env::var_os("BENCH_CMP_ONLY").is_some();
    let mut rows = if cmp_only {
        Vec::new()
    } else {
        vec![selftest_row()]
    };
    let mut speedups = Vec::new();
    let mut reductions = Vec::new();

    for (name, n, ticks) in [
        ("net8020_quick_1core", 200, 300u32),
        ("net8020_paper_1core_100ms", 1000, 100),
    ] {
        let best = (0..SESSIONS)
            .map(|_| compare_rows_1core(name, n, ticks))
            .max_by(|a, b| {
                (a.seed.wall_s / a.live.wall_s).total_cmp(&(b.seed.wall_s / b.live.wall_s))
            })
            .expect("at least one session");
        let CmpRows1 {
            seed,
            live,
            norelax,
            nosb,
            relaxed,
            nokernel,
        } = best;
        speedups.push((name.to_string(), seed.wall_s / live.wall_s));
        speedups.push((format!("{name}_norelax"), seed.wall_s / norelax.wall_s));
        speedups.push((format!("{name}_nosb"), seed.wall_s / nosb.wall_s));
        speedups.push((format!("{name}_relaxed"), seed.wall_s / relaxed.wall_s));
        speedups.push((
            format!("{name}_relaxed_nokernel"),
            seed.wall_s / nokernel.wall_s,
        ));
        reductions.push((
            name.to_string(),
            (seed.sim_instret - live.sim_instret) as f64 / seed.sim_instret as f64,
        ));
        rows.push(seed);
        rows.push(live);
        rows.push(norelax);
        rows.push(nosb);
        rows.push(relaxed);
        rows.push(nokernel);
    }

    let name = "net8020_quick_2core";
    let (seed, relaxed, exact) = (0..SESSIONS)
        .map(|_| compare_rows_2core(name, 200, 300))
        .max_by(|a, b| (a.0.wall_s / a.1.wall_s).total_cmp(&(b.0.wall_s / b.1.wall_s)))
        .expect("at least one session");
    speedups.push((name.to_string(), seed.wall_s / relaxed.wall_s));
    speedups.push((format!("{name}_exact"), seed.wall_s / exact.wall_s));
    rows.push(seed);
    rows.push(relaxed);
    rows.push(exact);

    if !cmp_only {
        let (one, two, par) = sweep_rows("net8020_sweep_quick", 200, 300);
        rows.push(one);
        rows.push(two);
        rows.push(par);
        let (one, relaxed, exact) = sudoku_rows();
        rows.push(one);
        rows.push(relaxed);
        rows.push(exact);
    }

    let battery = if cmp_only { Vec::new() } else { battery_rows() };
    let accuracy = estimated_accuracy(&battery);
    let mut doc = vec![
        ("schema", "izhirisc-perf-baseline-v11".into()),
        ("methodology", methodology().into()),
        (
            "workloads",
            Value::Array(rows.iter().map(Row::json).collect()),
        ),
        ("battery", battery::rows_json(&battery)),
    ];
    if !cmp_only {
        doc.push(("service", service_section()));
        doc.push(("battery_throughput", battery_throughput()));
    }
    let section = |entries: &[(String, f64)], places| {
        Value::object(
            entries
                .iter()
                .map(|(k, v)| (k.as_str(), Value::decimal(*v, places))),
        )
    };
    doc.push(("estimated_accuracy", section(&accuracy, 3)));
    doc.push(("instret_reduction", section(&reductions, 4)));
    doc.push(("speedup_vs_seed", section(&speedups, 3)));
    let doc = Value::object(doc);

    println!(
        "{:<32} {:>11} {:>3} {:>9} {:>14} {:>14} {:>12} {:>12}",
        "workload", "sched", "ht", "wall [s]", "sim cycles", "sim instret", "Mcycles/s", "Minstr/s"
    );
    for r in &rows {
        println!(
            "{:<32} {:>11} {:>3} {:>9.3} {:>14} {:>14} {:>12.2} {:>12.2}",
            r.name,
            r.sched,
            r.host_threads,
            r.wall_s,
            r.sim_cycles,
            r.sim_instret,
            r.cycles_per_s() / 1e6,
            r.instr_per_s() / 1e6,
        );
    }
    for (name, s) in &speedups {
        println!("speedup vs seed interpreter on {name}: {s:.3}x");
    }
    for (name, r) in &reductions {
        println!("relaxation instret reduction on {name}: {:.2}%", r * 100.0);
    }
    if !battery.is_empty() {
        println!("\nscenario battery (registry-driven, cross-mode raster identity verified):");
        print!("{}", battery::rows_table(&battery));
    }
    if !accuracy.is_empty() {
        println!("\nestimated-vs-exact cycle accuracy (battery, per scenario):");
        for (name, r) in &accuracy {
            println!("  {name}: {r:.3}");
        }
    }
    std::fs::write(&out_path, format!("{doc}\n")).expect("write json");
    println!("\nwrote {out_path}");

    if let Some(baseline) = check_path {
        if !check(&doc, &baseline, cmp_only) {
            eprintln!("perf gate FAILED");
            std::process::exit(1);
        }
        println!("perf gate passed");
    }
}
