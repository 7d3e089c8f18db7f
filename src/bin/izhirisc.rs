//! `izhirisc` — command-line front end for the IzhiRISC-V toolchain.
//!
//! ```text
//! izhirisc asm    <file.s> [-o out.bin]      assemble to a flat binary
//! izhirisc disasm <file.bin> [--base ADDR]   disassemble a flat binary
//! izhirisc run    <file.s> [options]         assemble + run on the simulator
//!     --cores N        number of cores (default 1)
//!     --cycles N       cycle budget (default 100000000)
//!     --sched MODE     scheduling mode: exact | relaxed | parallel
//!                      (default exact; relaxed = the relaxed scheduler
//!                      on one host thread: round-robin quanta on the
//!                      relaxed clock, blocking barriers; parallel = the
//!                      same scheduler on --host-threads host threads,
//!                      bit-identical to relaxed at any thread count)
//!     --quantum N      relaxed/parallel scheduling quantum (default 50000)
//!     --host-threads N worker threads for --sched parallel
//!                      (0 = auto via IZHI_HOST_THREADS / host CPUs)
//!     --timing T       clock: exact (the exact scheduler's cycle-accurate
//!                      model), unit (1 cycle/instruction) or estimated
//!                      (static per-op-class costs); unit and estimated
//!                      need --sched relaxed|parallel
//!     --trace          print every retired instruction (core 0)
//!     --regs           dump the register file at exit
//! izhirisc scenario list                     list registered scenarios
//! izhirisc scenario run <name> [options]     build + run a scenario
//!     --sched MODE --quantum N --host-threads N --timing T    as above
//!     --n N --ticks N --cores N --seed N           scenario parameters
//!     --ease true|false
//!                      sudoku scenarios: restore half the blanks so
//!                      short budgets converge (default true)
//!     --stim-rate N    net8020_stream: injected stimulus events per tick
//!     --quick          use the scenario's CI-sized quick parameters
//!     --battery        fan the scenario's battery (seeds x sched x timing)
//!                      across host threads, verify cross-mode identity
//!     --json PATH      write battery rows as JSON (with --battery)
//! izhirisc scenario battery [--timing T] [--json PATH]
//!                                            quick battery of EVERY scenario
//!                                            (--timing: only that clock's rows)
//! izhirisc serve [options]                   scenario service (HTTP/1.1 JSON)
//!     --addr HOST:PORT bind address (default 127.0.0.1:7171)
//!     --workers N      supervised worker threads (default 2)
//!     --queue-cap N    bounded queue capacity — submissions beyond it
//!                      get 429 + a retry_after_ms hint (default 16)
//!     --wall-limit S   per-job wall-clock budget in seconds (default 30)
//!     --no-retry       disable the retry policy for transient failures
//! izhirisc selftest                          run the guest ISA battery
//! ```
//!
//! Flag parsing is strict: unknown flags are rejected, and a flag that
//! needs a value refuses to swallow the next flag (`--quantum --trace`
//! is an error, not quantum = "--trace"). Each setting has one spelling:
//! `--sched` alone selects the scheduler, and no other flag implies one.

use std::fs;
use std::io::Write as _;
use std::process::exit;

use izhirisc::bench::battery::{self, BatteryRunner, BatterySpec, SchedSpec};
use izhirisc::bench::json::Value;
use izhirisc::bench::serve::{ServeConfig, Server};
use izhirisc::bench::supervise::{RetryPolicy, SuperviseConfig};
use izhirisc::isa::{decode, disassemble, Assembler, Reg};
use izhirisc::programs::scenario::{self, ScenarioParams, Workload};
use izhirisc::programs::template;
use izhirisc::sim::{SchedMode, System, SystemConfig, TimingModel};

fn usage() -> ! {
    eprintln!(
        "usage:\n  izhirisc asm <file.s> [-o out.bin]\n  izhirisc disasm <file.bin> [--base ADDR]\n  izhirisc run <file.s> [--cores N] [--cycles N] [--sched exact|relaxed|parallel] [--quantum N] [--host-threads N] [--timing exact|unit|estimated] [--trace] [--regs]\n  izhirisc scenario list\n  izhirisc scenario run <name> [--sched MODE] [--timing T] [--n N] [--ticks N] [--cores N] [--seed N] [--ease true|false] [--stim-rate N] [--quantum N] [--host-threads N] [--quick] [--battery] [--json PATH]\n  izhirisc scenario battery [--timing T] [--json PATH]\n  izhirisc serve [--addr HOST:PORT] [--workers N] [--queue-cap N] [--wall-limit SECS] [--no-retry]\n  izhirisc selftest"
    );
    exit(2);
}

/// Strict flag extractor over a subcommand's argument list. Known flags
/// are *taken* (removed); whatever remains must be positional — any
/// leftover token starting with `-` is an unknown flag and an error.
struct Args {
    rest: Vec<String>,
}

impl Args {
    fn new(args: &[String]) -> Self {
        Args {
            rest: args.to_vec(),
        }
    }

    /// Take a boolean switch.
    fn switch(&mut self, flag: &str) -> bool {
        match self.rest.iter().position(|a| a == flag) {
            Some(i) => {
                self.rest.remove(i);
                true
            }
            None => false,
        }
    }

    /// Take a `--flag value` pair. The value must exist and must not look
    /// like another flag — `--quantum --trace` is rejected instead of
    /// silently parsing `--trace` as the quantum.
    fn value(&mut self, flag: &str) -> Option<String> {
        let i = self.rest.iter().position(|a| a == flag)?;
        self.rest.remove(i);
        if i >= self.rest.len() || self.rest[i].starts_with('-') {
            eprintln!(
                "flag `{flag}` needs a value{}",
                match self.rest.get(i) {
                    Some(next) => format!(" (got flag `{next}`)"),
                    None => String::new(),
                }
            );
            exit(2);
        }
        Some(self.rest.remove(i))
    }

    /// Finish parsing: reject unknown flags, return the positionals.
    fn positionals(self) -> Vec<String> {
        for a in &self.rest {
            if a.starts_with('-') {
                eprintln!("unknown flag `{a}`");
                usage();
            }
        }
        self.rest
    }
}

fn parse_u32(s: &str) -> u32 {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16)
    } else {
        s.parse()
    }
    .unwrap_or_else(|_| {
        eprintln!("bad number `{s}`");
        exit(2);
    })
}

/// Scheduling-mode selection shared by `run` and `scenario run`:
/// `--sched exact|relaxed|parallel` picks the scheduler (default exact).
/// `--timing exact|unit|estimated` picks the clock: `exact` is the exact
/// scheduler's cycle-accurate model, `unit`/`estimated` are the relaxed
/// clocks. `--quantum`, `--host-threads` and a relaxed clock each need a
/// scheduler that uses them.
fn parse_sched(args: &mut Args) -> SchedMode {
    let sched = args.value("--sched");
    let host_threads = args.value("--host-threads").map(|s| parse_u32(&s));
    let quantum = args.value("--quantum").map(|s| u64::from(parse_u32(&s)));
    let timing_arg = args.value("--timing");
    if let Some(t) = timing_arg.as_deref() {
        if !matches!(t, "exact" | "unit" | "estimated") {
            eprintln!("unknown --timing `{t}` (use exact, unit or estimated)");
            exit(2);
        }
    }
    let mode = match sched.as_deref() {
        None | Some("exact") => "exact",
        Some("relaxed") => "relaxed",
        Some("parallel") => "parallel",
        Some(other) => {
            eprintln!("unknown --sched mode `{other}` (use exact, relaxed or parallel)");
            exit(2);
        }
    };
    if mode == "exact" && quantum.is_some() {
        eprintln!("--quantum only applies to relaxed/parallel scheduling");
        exit(2);
    }
    if mode != "parallel" && host_threads.is_some() {
        eprintln!("--host-threads only applies to --sched parallel");
        exit(2);
    }
    let timing = match (mode, timing_arg.as_deref()) {
        // The exact scheduler *is* the cycle-accurate clock.
        ("exact", None | Some("exact")) => TimingModel::Unit, // unused
        ("exact", Some(t)) => {
            eprintln!("--timing {t} needs a relaxed scheduler (--sched relaxed|parallel)");
            exit(2);
        }
        (_, Some("exact")) => {
            eprintln!("--timing exact is the exact scheduler's clock; drop --sched");
            exit(2);
        }
        (_, None | Some("unit")) => TimingModel::Unit,
        (_, Some(_)) => TimingModel::Estimated,
    };
    let quantum = quantum.unwrap_or(SchedMode::DEFAULT_QUANTUM);
    match mode {
        "relaxed" => SchedMode::Relaxed { quantum, timing },
        "parallel" => SchedMode::RelaxedParallel {
            quantum,
            host_threads: host_threads.unwrap_or(0),
            timing,
        },
        _ => SchedMode::Exact,
    }
}

fn cmd_asm(args: &[String]) {
    let mut args = Args::new(args);
    let out_flag = args.value("-o");
    let positionals = args.positionals();
    let Some(path) = positionals.first() else {
        usage()
    };
    let src = fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let prog = Assembler::new().assemble(&src).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        exit(1);
    });
    let out = out_flag.unwrap_or_else(|| format!("{path}.bin"));
    // Flat image: from the lowest segment base to the highest end.
    let lo = prog.segments.iter().map(|s| s.base).min().unwrap_or(0);
    let hi = prog
        .segments
        .iter()
        .map(|s| s.base + s.data.len() as u32)
        .max()
        .unwrap_or(0);
    let mut image = vec![0u8; (hi - lo) as usize];
    for seg in &prog.segments {
        let off = (seg.base - lo) as usize;
        image[off..off + seg.data.len()].copy_from_slice(&seg.data);
    }
    fs::write(&out, &image).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    });
    println!(
        "{out}: {} bytes (base {lo:#x}, entry {:#x}, {} symbols)",
        image.len(),
        prog.entry,
        prog.symbols.len()
    );
}

fn cmd_disasm(args: &[String]) {
    let mut args = Args::new(args);
    let base = args.value("--base").map(|s| parse_u32(&s)).unwrap_or(0);
    let positionals = args.positionals();
    let Some(path) = positionals.first() else {
        usage()
    };
    let bytes = fs::read(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    // Tolerate a closed pipe (e.g. `izhirisc disasm x | head`).
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (i, chunk) in bytes.chunks(4).enumerate() {
        let mut w = [0u8; 4];
        w[..chunk.len()].copy_from_slice(chunk);
        let word = u32::from_le_bytes(w);
        let addr = base + 4 * i as u32;
        let line = match decode(word) {
            Ok(inst) => format!("{addr:#010x}: {word:08x}  {}", disassemble(inst)),
            Err(_) => format!("{addr:#010x}: {word:08x}  .word {word:#010x}"),
        };
        if writeln!(out, "{line}").is_err() {
            return;
        }
    }
}

fn cmd_run(args: &[String]) {
    let mut args = Args::new(args);
    let cores = args.value("--cores").map(|s| parse_u32(&s)).unwrap_or(1);
    let budget = args
        .value("--cycles")
        .map(|s| parse_u32(&s) as u64)
        .unwrap_or(100_000_000);
    let trace = args.switch("--trace");
    let dump_regs = args.switch("--regs");
    let sched = parse_sched(&mut args);
    let positionals = args.positionals();
    let Some(path) = positionals.first() else {
        usage()
    };
    if trace && sched != SchedMode::Exact {
        eprintln!("--trace single-steps the exact schedule; drop --sched");
        exit(2);
    }
    let src = fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let prog = Assembler::new().assemble(&src).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        exit(1);
    });

    let mut cfg = SystemConfig::with_cores(cores);
    cfg.sched = sched;
    let mut sys = System::new(cfg);
    if !sys.load_program(&prog) {
        eprintln!("program does not fit in simulated memory");
        exit(1);
    }
    let result = if trace {
        run_traced(&mut sys, budget)
    } else {
        sys.run(budget).map(|e| (e.cycles, e.instret))
    };
    match result {
        Ok((cycles, instret)) => {
            let console = sys.console();
            if !console.is_empty() {
                print!("{console}");
                if !console.ends_with('\n') {
                    println!();
                }
            }
            eprintln!(
                "[{instret} instructions, {cycles} cycles, IPC {:.3}]",
                instret as f64 / cycles.max(1) as f64
            );
            if dump_regs {
                for i in 0..32u8 {
                    let r = Reg(i);
                    eprint!("{:>5}={:#010x}", r.abi_name(), sys.core(0).reg(r));
                    if i % 4 == 3 {
                        eprintln!();
                    }
                }
            }
        }
        Err(e) => {
            eprintln!("simulation failed: {e}");
            exit(1);
        }
    }
}

/// Single-core trace loop: disassemble each instruction as it retires.
fn run_traced(sys: &mut System, budget: u64) -> Result<(u64, u64), izhirisc::sim::SimError> {
    if sys.n_cores() != 1 {
        eprintln!("--trace implies --cores 1");
        exit(2);
    }
    loop {
        if sys.core(0).halted() {
            break;
        }
        if sys.core(0).time > budget {
            return Err(izhirisc::sim::SimError::Timeout { max_cycles: budget });
        }
        let pc = sys.core(0).pc();
        let word = sys.shared().mem.read_u32(pc).unwrap_or(0);
        let text = decode(word)
            .map(disassemble)
            .unwrap_or_else(|_| "??".into());
        eprintln!("[{:>10}] {pc:#010x}: {text}", sys.core(0).time);
        sys.step_core(0)
            .map_err(|cause| izhirisc::sim::SimError::Trap { core: 0, cause })?;
    }
    Ok((sys.core(0).time, sys.core(0).counters.instret))
}

fn cmd_scenario_list() {
    println!("{:<16} summary", "scenario");
    println!("{:-<78}", "");
    for s in scenario::registry() {
        println!("{:<16} {}", s.name, s.summary);
        for p in s.schema {
            println!(
                "    --{:<12} (default {:<10}) {}",
                p.name, p.default, p.help
            );
        }
    }
    println!(
        "\nrun one:   izhirisc scenario run <name> [--sched exact|relaxed|parallel] [--battery]\nbattery:   izhirisc scenario battery   (every scenario, quick scale)"
    );
}

/// Write battery rows as a standalone JSON document (the CI smoke-job
/// artifact; same `"battery"` array shape as `BENCH_9.json`'s rows).
fn write_battery_json(path: &str, rows: &[battery::BatteryRow]) {
    let doc = Value::object([
        ("schema", "izhirisc-scenario-battery-v1".into()),
        ("battery", battery::rows_json(rows)),
    ]);
    fs::write(path, format!("{doc}\n")).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        exit(1);
    });
    println!("wrote {path}");
}

/// Run battery specs, print the table, enforce verification + cross-mode
/// raster identity, and optionally write the JSON artifact.
fn run_battery(specs: &[BatterySpec], json: Option<String>) {
    let runner = BatteryRunner::auto();
    println!(
        "battery: {} spec(s) on {} host thread(s)",
        specs.len(),
        runner.host_threads
    );
    let rows = runner.run(specs).unwrap_or_else(|e| {
        eprintln!("battery failed: {e}");
        exit(1);
    });
    print!("{}", battery::rows_table(&rows));
    if let Err(e) = battery::check_rows(&rows) {
        eprintln!("battery check FAILED: {e}");
        exit(1);
    }
    println!(
        "battery passed: {} rows, cross-mode raster identity and per-scenario verification hold",
        rows.len()
    );
    if let Some(path) = json {
        write_battery_json(&path, &rows);
    }
}

/// A battery's mode set: every sched × timing combination, or only the
/// rows on the `--timing` clock when one is given.
fn battery_scheds(timing: Option<&str>) -> Vec<SchedSpec> {
    match timing {
        None => SchedSpec::default_set(2),
        Some(t @ ("exact" | "unit" | "estimated")) => SchedSpec::timing_set(2, t),
        Some(other) => {
            eprintln!("unknown --timing `{other}` (use exact, unit or estimated)");
            exit(2);
        }
    }
}

fn cmd_scenario_run(args: &[String]) {
    let mut args = Args::new(args);
    let params = ScenarioParams {
        n: args.value("--n").map(|s| parse_u32(&s) as usize),
        ticks: args.value("--ticks").map(|s| parse_u32(&s)),
        n_cores: args.value("--cores").map(|s| parse_u32(&s)),
        seed: args.value("--seed").map(|s| parse_u32(&s)),
        ease: args.value("--ease").map(|s| match s.as_str() {
            "true" | "1" | "yes" => true,
            "false" | "0" | "no" => false,
            other => {
                eprintln!("bad --ease value `{other}` (use true or false)");
                exit(2);
            }
        }),
        stim_rate: args.value("--stim-rate").map(|s| parse_u32(&s)),
    };
    let quick = args.switch("--quick");
    let battery_mode = args.switch("--battery");
    let json = args.value("--json");
    // A --battery run honours an explicit --sched (one row set) or a
    // bare --timing (that clock's row subset, as under `scenario
    // battery`) instead of silently fanning over every combination.
    let sched_given = args.rest.iter().any(|a| a == "--sched");
    let timing_filter = if battery_mode && !sched_given {
        args.value("--timing")
    } else {
        None
    };
    let sched = parse_sched(&mut args);
    let positionals = args.positionals();
    let Some(name) = positionals.first() else {
        eprintln!("scenario run needs a scenario name (see `izhirisc scenario list`)");
        exit(2);
    };
    let Some(sc) = scenario::find(name) else {
        eprintln!(
            "unknown scenario `{name}`; registered: {}",
            scenario::registry()
                .iter()
                .map(|s| s.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        exit(2);
    };
    if json.is_some() && !battery_mode {
        eprintln!("--json only applies to --battery runs");
        exit(2);
    }
    // Reject shapes the engine cannot build (more than 64 cores,
    // standard-map scenarios past their memory bounds, …) up front with a
    // one-line error instead of a guest trap or panic inside the engine.
    if let Err(e) = sc.validate(&params, quick) {
        eprintln!("{name}: invalid parameters: {e}");
        exit(2);
    }

    if battery_mode {
        let seeds = match params.seed {
            Some(seed) => vec![seed],
            None => sc.battery_seeds.to_vec(),
        };
        let scheds = if sched_given {
            vec![SchedSpec::of(sched)]
        } else {
            battery_scheds(timing_filter.as_deref())
        };
        let spec = BatterySpec {
            scenario: sc.name,
            params: ScenarioParams {
                seed: None,
                ..params
            },
            seeds,
            scheds,
            quick,
            ..BatterySpec::quick(sc, 2)
        };
        run_battery(&[spec], json);
        return;
    }

    // Single runs go through the template cache too: a repeated
    // `scenario run` of the same shape reuses the assembled snapshot.
    let (wl, _) = template::instance(sc, &params, quick, sched);
    let start = std::time::Instant::now();
    let res = wl.run().unwrap_or_else(|e| {
        eprintln!("{name}: simulation failed: {e}");
        exit(1);
    });
    let wall = start.elapsed().as_secs_f64();
    println!(
        "{name}: n={} ticks={} cores={} sched={:?}",
        wl.cfg().n,
        wl.cfg().ticks,
        wl.cfg().n_cores,
        wl.cfg().system.sched
    );
    println!(
        "  wall {wall:.3} s | sim {} cycles, {} instret | {} spikes | raster hash {:#018x}",
        res.cycles,
        res.instret,
        res.raster.spikes.len(),
        res.raster_hash()
    );
    if let Some(w) = res.weight_hash {
        println!("  final weight hash {w:#018x} (STDP)");
    }
    println!(
        "  guest exec time {:.4} s ({:.4} ms/tick at {:.0} MHz)",
        res.exec_time_s(),
        res.time_per_tick_ms(),
        wl.cfg().system.clock_hz / 1e6
    );
    match wl.verify(&res) {
        Ok(()) => println!("  verification: OK"),
        Err(e) => {
            eprintln!("  verification FAILED: {e}");
            exit(1);
        }
    }
}

fn cmd_scenario_battery(args: &[String]) {
    let mut args = Args::new(args);
    let json = args.value("--json");
    let timing = args.value("--timing");
    let positionals = args.positionals();
    if !positionals.is_empty() {
        eprintln!("scenario battery takes no scenario names (it runs every registered scenario); use `scenario run <name> --battery` for one");
        exit(2);
    }
    let scheds = battery_scheds(timing.as_deref());
    let specs: Vec<BatterySpec> = scenario::registry()
        .iter()
        .map(|s| BatterySpec {
            scheds: scheds.clone(),
            ..BatterySpec::quick(s, 2)
        })
        .collect();
    run_battery(&specs, json);
}

fn cmd_scenario(args: &[String]) {
    match args.first().map(String::as_str) {
        Some("list") => cmd_scenario_list(),
        Some("run") => cmd_scenario_run(&args[1..]),
        Some("battery") => cmd_scenario_battery(&args[1..]),
        _ => usage(),
    }
}

fn cmd_serve(args: &[String]) {
    let mut args = Args::new(args);
    let addr = args
        .value("--addr")
        .unwrap_or_else(|| "127.0.0.1:7171".to_string());
    let workers = args
        .value("--workers")
        .map(|s| parse_u32(&s) as usize)
        .unwrap_or(2);
    let queue_cap = args
        .value("--queue-cap")
        .map(|s| parse_u32(&s) as usize)
        .unwrap_or(16);
    let wall_limit = args
        .value("--wall-limit")
        .map(|s| u64::from(parse_u32(&s)))
        .unwrap_or(30);
    let no_retry = args.switch("--no-retry");
    if !args.positionals().is_empty() {
        eprintln!("serve takes no positional arguments");
        usage();
    }
    let supervise = SuperviseConfig {
        wall_limit: Some(std::time::Duration::from_secs(wall_limit)),
        retry: if no_retry {
            RetryPolicy::no_retry()
        } else {
            RetryPolicy::default()
        },
        ..Default::default()
    };
    let handle = Server::start(ServeConfig {
        addr,
        queue_cap,
        workers,
        supervise,
    })
    .unwrap_or_else(|e| {
        eprintln!("cannot start the scenario service: {e}");
        exit(1);
    });
    println!(
        "scenario service on http://{} ({} workers, queue cap {queue_cap}, wall limit {wall_limit}s)",
        handle.addr(),
        workers
    );
    println!("endpoints: GET /health | POST /jobs | GET /jobs/<id> | POST /shutdown");
    // Blocks until a POST /shutdown drains the queue and in-flight jobs.
    handle.join();
    println!("scenario service drained and stopped");
}

fn cmd_selftest() {
    let (failures, console) = izhirisc::programs::selftest::run_battery();
    print!("{console}");
    let n = izhirisc::programs::selftest::battery().len();
    println!("\n{n} cases, {failures} failures");
    exit(if failures == 0 { 0 } else { 1 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("asm") => cmd_asm(&args[1..]),
        Some("disasm") => cmd_disasm(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("scenario") => cmd_scenario(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("selftest") => cmd_selftest(),
        _ => usage(),
    }
}
