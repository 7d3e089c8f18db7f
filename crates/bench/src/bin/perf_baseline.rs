//! `perf_baseline` — the repo's reproducible simulator-throughput
//! measurement and CI perf-regression gate. It only times: the scenario
//! battery, the estimated-clock accuracy band and the service guarantees
//! are checked once, by the tier-1 suites and CI steps that own them
//! (`scenario_battery`, `serve_api`, CI's battery and service smoke jobs).
//!
//! Every workload is built through the scenario registry
//! (`izhi_programs::scenario`), so these rows and the CLI and tests all
//! measure the same definitions. Two kinds of rows:
//!
//! * **Seed-vs-live comparison**: 80-20 rows run on the frozen seed
//!   interpreter (`izhi_bench::seedsim`) and on the live `izhi_sim`,
//!   *interleaved* in the same process and repeated `REPS` times per
//!   session (best run kept), so the reported speedups are immune to
//!   host-speed drift between measurement sessions. Each single-core
//!   workload produces a headline row (superblocks + assembler relaxation
//!   on — the shipping configuration), a `_norelax` diagnostic row
//!   (relaxation off) and a `_nosb` diagnostic row (superblocks off). The
//!   `_norelax` row must agree with the seed bit- and cycle-exactly
//!   (cycles, instret, full packed spike log) — relaxation is the *only*
//!   thing allowed to change the instruction stream. The headline row
//!   must reproduce the seed's spike log word for word (raster timestamps
//!   are simulation ticks, so relaxation cannot move them) while retiring
//!   strictly fewer instructions; the `_nosb` row must be bit-identical
//!   to the headline row (superblock fusion is dispatch-only, never
//!   semantic). The dual-core rows run the exact scheduler (`*_exact`,
//!   cycle-faithful) and `SchedMode::Relaxed` (the headline `*_2core`
//!   row, reporting the one-cycle-per-instruction relaxed clock) and must
//!   agree with the seed on the *spike raster as a set*: the seed's
//!   multi-core scheduler batches eight steps per pick, so its
//!   interleaving (and therefore cycle/spin counts and log order) differs
//!   from both live schedules — the physics may not.
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
//! cargo run --release --bin perf_baseline -- <out.json> [--check baseline.json]
//! ```
//!
//! Writes the document to `out.json` (required, so a run never
//! overwrites a committed baseline by default) through the workspace's
//! JSON codec. With `--check`, the document just written is gated
//! against the committed baseline by the rule table
//! [`izhi_bench::gate::RULES`] (the CI perf-regression gate), and the run
//! exits non-zero if any rule fails. A malformed command line prints the
//! usage line and exits 2.

use std::time::Instant;

use izhi_bench::json::{self, Value};
use izhi_bench::{gate, seedsim};
use izhi_isa::Assembler;
use izhi_programs::engine::{build_asm, EngineConfig, GuestImage};
use izhi_programs::layout;
use izhi_programs::scenario::{self, ScenarioParams, Workload};
use izhi_programs::template;
use izhi_sim::{SchedMode, SystemConfig};

/// Interleaved repetitions per comparison session.
const REPS: usize = 5;
/// Comparison sessions per workload (the best session's rows are kept;
/// host-speed drift on this shared VM makes single sessions undershoot).
const SESSIONS: usize = 5;

/// One measured workload.
struct Row {
    name: String,
    /// Scheduling mode annotation: "exact", "relaxed" or "seed".
    sched: &'static str,
    wall_s: f64,
    sim_cycles: u64,
    sim_instret: u64,
    spikes: u64,
    /// Full packed spike log (`t<<16|neuron` words) for exactness checks.
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
    Row {
        name: name.into(),
        sched,
        wall_s,
        sim_cycles: res.cycles,
        sim_instret: res.instret,
        spikes: res.raster.spikes.len() as u64,
        spike_log: res
            .raster
            .spikes
            .iter()
            .map(|&(t, n)| izhi_snn::analysis::SpikeRaster::pack(t, n))
            .collect(),
    }
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

/// The document's `methodology` string.
fn methodology() -> String {
    format!(
        "seed rows: frozen seed interpreter, interleaved with live rows in-process, best of {REPS} reps x {SESSIONS} sessions; 1-core workloads produce a headline row (superblock interpreter + assembler relaxation on), a _norelax diagnostic row (relaxation off; asserted cycle/instret/spike-log identical to the seed — the superblock interpreter is timing-transparent) and a _nosb diagnostic row (superblocks off; asserted bit-identical to the headline row — fusion is dispatch-only), a _relaxed row (SchedMode::Relaxed with kernel offload on — the configuration relaxed sweeps ship; asserted seed spike-log word identity and headline-row instret identity) and a _relaxed_nokernel row (kernels forced off; asserted cycle/instret/spike-log bit-identical to the _relaxed row — kernel offload is dispatch-only); the headline row asserts seed spike-log word identity plus strictly fewer retired instructions; instret_reduction records the headline row's fractional instret saving vs the seed (deterministic, gated on the quick row); 2-core rows assert spike-raster set identity across seed/exact/relaxed schedules; relaxed rows run SchedMode::Relaxed (clock = 1 cycle per instruction, blocking barriers) and report that clock; battery_throughput: the repeat-seed quick battery (every scenario, first battery seed, {THROUGHPUT_TICKS}-tick service-shaped jobs, {THROUGHPUT_REPEATS} repeats) timed twice in-process — cold-building every run vs instantiating from the initially cleared template cache — with per-run hash/cycle/instret identity asserted between the arms; the gate requires cached/cold >= the floor (a same-host ratio, not an absolute runs/s)"
    )
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
/// [`gate::RULES`], reading the baseline once and printing one report.
fn check(doc: &Value, baseline_path: &str) -> bool {
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
    let outcomes = gate::evaluate(doc, &baseline, gate::RULES);
    let failed = outcomes.iter().filter(|o| !o.passed).count();
    println!(
        "\nperf gate vs {baseline_path}: {} outcomes, {failed} failed",
        outcomes.len()
    );
    for o in &outcomes {
        println!("  {o}");
    }
    failed == 0
}

/// Print `problem` and the usage line, and exit 2.
fn usage(problem: &str) -> ! {
    eprintln!("{problem}; usage: perf_baseline <out.json> [--check baseline.json]");
    std::process::exit(2);
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    // Every malformed command line is refused: a dropped `--check` value
    // or a typoed flag would otherwise skip the CI gate while staying
    // green, and a defaulted output path would overwrite a committed
    // baseline.
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" if check_path.is_some() => usage("`--check` given twice"),
            "--check" => match args.next() {
                Some(path) if !path.starts_with("--") => check_path = Some(path),
                _ => usage("`--check` needs a baseline path"),
            },
            flag if flag.starts_with("--") => usage(&format!("unknown flag `{flag}`")),
            _ if out_path.is_some() => usage(&format!("unexpected argument `{arg}`")),
            _ => out_path = Some(arg),
        }
    }
    let Some(out_path) = out_path else {
        usage("no output path given")
    };

    let mut rows = Vec::new();
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

    let section = |entries: &[(String, f64)], places| {
        Value::object(
            entries
                .iter()
                .map(|(k, v)| (k.as_str(), Value::decimal(*v, places))),
        )
    };
    let doc = Value::object([
        ("schema", "izhirisc-perf-baseline-v11".into()),
        ("methodology", methodology().into()),
        (
            "workloads",
            Value::Array(rows.iter().map(Row::json).collect()),
        ),
        ("battery_throughput", battery_throughput()),
        ("instret_reduction", section(&reductions, 4)),
        ("speedup_vs_seed", section(&speedups, 3)),
    ]);

    println!(
        "{:<32} {:>8} {:>9} {:>14} {:>14} {:>12} {:>12}",
        "workload", "sched", "wall [s]", "sim cycles", "sim instret", "Mcycles/s", "Minstr/s"
    );
    for r in &rows {
        println!(
            "{:<32} {:>8} {:>9.3} {:>14} {:>14} {:>12.2} {:>12.2}",
            r.name,
            r.sched,
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
    std::fs::write(&out_path, format!("{doc}\n")).expect("write json");
    println!("\nwrote {out_path}");

    if let Some(baseline) = check_path {
        if !check(&doc, &baseline) {
            eprintln!("perf gate FAILED");
            std::process::exit(1);
        }
        println!("perf gate passed");
    }
}
