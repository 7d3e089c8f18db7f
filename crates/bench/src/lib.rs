//! # izhi-bench — experiment harness
//!
//! One generator function per table and figure of the paper. Each returns
//! the rendered text (and usually CSV-ish data) that the `tables` binary
//! writes to `results/`. The perf gate is the `perf_baseline` binary;
//! the `interp_microbench` example times the interpreter per instruction
//! class.
//!
//! | Experiment | Function | Paper reference |
//! |---|---|---|
//! | Table I   | [`table1`] | custom-instruction encodings |
//! | Table II  | [`table2`] | DCU approximation errors |
//! | Table III | [`table3`] | MAX10 dual-core utilisation |
//! | Table IV  | [`table4`] | Agilex-7 16/32/64-core utilisation |
//! | Table V   | [`table5`] | 80-20 performance metrics |
//! | Table VI  | [`table6`] | Sudoku performance metrics |
//! | Table VII | [`table7`] | FreePDK45/ASAP7 mapping |
//! | Fig. 2    | [`fig2`]   | 80-20 raster |
//! | Fig. 3    | [`fig3`]   | ISI histograms |
//! | Fig. 4    | [`fig4`]   | WTA topology |
//! | Fig. 5    | [`fig5`]   | floorplan fractions |
//! | §VI-C     | [`ablation_softfloat`] | NPU vs soft-float |
//! | §V-B      | [`ablation_csr_writeback`] | CSR-writeback fix |
//! | §VI-A     | [`ablation_cache_sweep`] | cache geometry / 3-core fallback |
//! | §VII      | [`scaling_study`] | bus vs NoC scaling projection |

pub mod battery;
pub mod gate;
pub mod json;
pub mod seedsim;
pub mod serve;
pub mod supervise;

use std::fmt::Write as _;

use izhi_core::dcu::{Dcu, SHIFT_TABLES};
use izhi_hw::asic::{AsicLibrary, AsicReport};
use izhi_hw::blocks::Block;
use izhi_hw::fpga::{FpgaReport, FpgaTarget};
use izhi_isa::inst::{Inst, NmOp};
use izhi_isa::Reg;
use izhi_isa::{disassemble, encode};
use izhi_programs::engine::Variant;
use izhi_programs::net8020::Net8020Workload;
use izhi_programs::scenario::{self, ScenarioParams, Workload};
use izhi_programs::sudoku_prog::SudokuWorkload;
use izhi_sim::Metrics;
use izhi_snn::analysis::{band_power, IsiHistogram};
use izhi_snn::gen8020::Net8020;
use izhi_snn::simulate::{F64Simulator, FixedSimulator};
use izhi_snn::sudoku::{hard_puzzle, SudokuGrid};

/// Paired single/dual-core Sudoku results (Table VI rows).
pub struct SudokuPair {
    /// Single-core run.
    pub one: izhi_programs::sudoku_prog::SudokuRunResult,
    /// Dual-core run.
    pub two: izhi_programs::sudoku_prog::SudokuRunResult,
}

/// Scale of a workload run: the paper's full size or a quick CI-sized one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper scale (1000 neurons × 1000 ticks; several puzzles).
    Full,
    /// Small scale for smoke runs.
    Quick,
}

/// Network and noise seed of every 80-20 experiment.
const NET8020_SEED: u32 = 5;

impl Scale {
    fn net8020(self) -> (usize, usize, u32) {
        match self {
            Scale::Full => (800, 200, 1000),
            Scale::Quick => (160, 40, 300),
        }
    }

    fn sudoku(self) -> (usize, u32) {
        // (#puzzles from the hard corpus, tick budget per puzzle)
        match self {
            Scale::Full => (5, 45_000),
            Scale::Quick => (1, 2500),
        }
    }

    /// Registry parameters for the `net8020` scenario at this scale.
    fn net8020_params(self, n_cores: u32) -> ScenarioParams {
        let (n_exc, n_inh, ticks) = self.net8020();
        ScenarioParams::default()
            .with_n(n_exc + n_inh)
            .with_ticks(ticks)
            .with_cores(n_cores)
            .with_seed(NET8020_SEED)
    }
}

/// Build a `net8020` instance through the scenario registry.
fn net8020_scenario(scale: Scale, n_cores: u32) -> Box<dyn Workload> {
    scenario::find("net8020")
        .expect("net8020 is registered")
        .build(&scale.net8020_params(n_cores))
}

/// Table I: the custom-instruction encodings.
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table I — custom ISA extension (opcode 0001011)");
    let _ = writeln!(out, "{:-<72}", "");
    let _ = writeln!(
        out,
        "{:<8} {:<8} {:<34} disassembly",
        "mnem", "funct3", "example encoding"
    );
    for (op, rd, rs1, rs2) in [
        (NmOp::Nmldl, Reg::ZERO, Reg::A6, Reg::A7),
        (NmOp::Nmldh, Reg::ZERO, Reg::A6, Reg::ZERO),
        (NmOp::Nmpn, Reg::A2, Reg::A6, Reg::A7),
        (NmOp::Nmdec, Reg::A1, Reg::A0, Reg::A2),
    ] {
        let inst = Inst::Nm { op, rd, rs1, rs2 };
        let word = encode(inst);
        let _ = writeln!(
            out,
            "{:<8} {:03b}      {:#010x} ({:032b})  {}",
            op.mnemonic(),
            op.funct3(),
            word,
            word,
            disassemble(inst)
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "Operand formats (paper Table I):");
    let _ = writeln!(
        out,
        "  nmldl: rs1 = {{b[31:16] Q4.11, a[15:0] Q4.11}}, rs2 = {{d[31:16] Q4.11, c[15:0] Q7.8}}"
    );
    let _ = writeln!(
        out,
        "  nmldh: rs1 bit0 = h (0: 0.5 ms, 1: 0.125 ms), bit1 = pin"
    );
    let _ = writeln!(
        out,
        "  nmpn : rs1 = VU word {{v[31:16] Q7.8, u[15:0] Q7.8}}, rs2 = Isyn Q15.16,"
    );
    let _ = writeln!(out, "         rd in = &VU word, rd out = spike flag");
    let _ = writeln!(
        out,
        "  nmdec: rs1 = Isyn Q15.16, rs2 = tau (1..9), rd = decayed Isyn"
    );
    out
}

/// Table II: DCU division-approximation errors.
pub fn table2() -> String {
    let paper_ae = [0.0, 0.3906, 0.0, 0.3906, 12.1093, 0.1953, 0.0];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table II — DCU division approximation (shift factors 1..9)"
    );
    let _ = writeln!(out, "{:-<78}", "");
    let _ = writeln!(
        out,
        "{:<6} {:<28} {:>14} {:>10} {:>10}",
        "div", "decomposition", "approx value", "AE [%]", "paper [%]"
    );
    for d in 2..=8u32 {
        let shifts = SHIFT_TABLES[d as usize - 1];
        let decomp = shifts
            .iter()
            .map(|s| format!("x>>{s}"))
            .collect::<Vec<_>>()
            .join(" + ");
        let _ = writeln!(
            out,
            "x/{:<4} {:<28} {:>14.9} {:>10.4} {:>10.4}",
            d,
            decomp,
            Dcu::approx_factor(d),
            Dcu::approximation_error_pct(d).abs(),
            paper_ae[d as usize - 2],
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "note: the paper prints 12.1093 % for /6, but its own decomposition\n\
         (x>>3 + x>>5 + x>>7 + x>>9 = 0.166015625) realises 0.3906 % — we\n\
         reproduce the decomposition, so we report the computed value."
    );
    out
}

fn fpga_rows(r: &FpgaReport, labels: [&str; 4]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<22} {:>12.0} ({:>5.1} %)",
        labels[0], r.used.logic, r.pct.logic
    );
    let _ = writeln!(
        out,
        "  {:<22} {:>12.0} ({:>5.1} %)",
        labels[1], r.used.ff, r.pct.ff
    );
    let _ = writeln!(
        out,
        "  {:<22} {:>12.1} ({:>5.1} %)",
        labels[2], r.used.memory, r.pct.memory
    );
    let _ = writeln!(
        out,
        "  {:<22} {:>12.0} ({:>5.1} %)",
        labels[3], r.used.dsp, r.pct.dsp
    );
    out
}

/// Table III: dual-core MAX10 utilisation.
pub fn table3() -> String {
    let r = FpgaReport::for_cores(FpgaTarget::Max10, 2);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table III — dual-core IzhiRISC-V on Intel MAX10 (model)"
    );
    let _ = writeln!(out, "{:-<56}", "");
    let _ = writeln!(out, "  Frequency              30 MHz");
    out.push_str(&fpga_rows(
        &r,
        ["Logic elements", "FF", "BRAM [Kb]", "Emb. mult (9b)"],
    ));
    let _ = writeln!(
        out,
        "  paper: 49248 LE (99 %), 28235 FF (51 %), 346.468 Kb (21 %), 68 mult (24 %)"
    );
    let r3 = FpgaReport::for_cores(FpgaTarget::Max10, 3);
    let _ = writeln!(
        out,
        "  3 cores as configured: {} (paper: required shrinking caches to fit)",
        if r3.fits { "fits" } else { "does NOT fit" }
    );
    out
}

/// Table IV: Agilex-7 16/32/64-core utilisation plus the 192-core claim.
pub fn table4() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table IV — IzhiRISC-V systems on Intel Agilex-7 (model)"
    );
    let _ = writeln!(out, "{:-<56}", "");
    let _ = writeln!(out, "  Frequency              100 MHz");
    for n in [16, 32, 64] {
        let r = FpgaReport::for_cores(FpgaTarget::Agilex7, n);
        let _ = writeln!(out, "-- {n} cores:");
        out.push_str(&fpga_rows(&r, ["ALM", "FF", "RAM blocks", "DSP"]));
    }
    let _ = writeln!(
        out,
        "  paper @16: 107144 ALM / 95624 FF / 390 RAM / 152 DSP\n\
         \x20 paper @32: 216448 ALM / 186760 FF / 646 RAM / 304 DSP\n\
         \x20 paper @64: 420977 ALM / 372741 FF / 1158 RAM / 608 DSP"
    );
    let _ = writeln!(
        out,
        "  max cores that fit (model): {}  (paper projects up to 192)",
        FpgaReport::max_cores(FpgaTarget::Agilex7)
    );
    out
}

fn metric_rows(label: &str, m: &Metrics) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- {label}:");
    let _ = writeln!(out, "  Execution time [s]     {:>12.4}", m.exec_time_s);
    let _ = writeln!(out, "  IPC                    {:>12.4}", m.ipc);
    let _ = writeln!(out, "  IPC_eff                {:>12.4}", m.ipc_eff);
    let _ = writeln!(out, "  Hazard stalls [%]      {:>12.3}", m.hazard_stall_pct);
    let _ = writeln!(out, "  All cache misses       {:>12}", m.all_cache_misses);
    let _ = writeln!(out, "  I-cache hit rate [%]   {:>12.2}", m.icache_hit_pct);
    let _ = writeln!(out, "  D-cache hit rate [%]   {:>12.2}", m.dcache_hit_pct);
    let _ = writeln!(out, "  Mem intensity          {:>12.2}", m.mem_intensity);
    out
}

/// Table V: 80-20 network metrics for one and two cores.
pub fn table5(scale: Scale) -> String {
    let (n_exc, n_inh, ticks) = scale.net8020();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table V — 80-20 network ({} neurons, {ticks} steps, 1 ms step, 30 MHz)",
        n_exc + n_inh
    );
    let _ = writeln!(out, "{:-<66}", "");
    let single = net8020_scenario(scale, 1)
        .run()
        .expect("single-core run failed");
    let dual = net8020_scenario(scale, 2)
        .run()
        .expect("dual-core run failed");
    let speedup = single.exec_time_s() / dual.exec_time_s();
    let _ = writeln!(
        out,
        "  Speedup (dual vs single): {speedup:.3}x   (paper: 1.643x)"
    );
    out.push_str(&metric_rows("Single-core", &single.metrics[0]));
    out.push_str(&metric_rows("Dual-core, core #1", &dual.metrics[0]));
    out.push_str(&metric_rows("Dual-core, core #2", &dual.metrics[1]));
    let _ = writeln!(
        out,
        "  paper single-core: 7.870 s, IPC 0.5735, IPC_eff 0.6516, hazard 0.742 %,\n\
         \x20   misses 1306420, I$ 99.97 %, D$ 96.54 %, mem intensity 27.15\n\
         \x20 paper dual-core:  4.791 s/core, IPC ~0.52-0.53, IPC_eff ~0.65-0.66,\n\
         \x20   hazard 5.3-6.3 %, I$ 99.97 %, D$ 97.1-97.2 %, mem int. 28.9-30.1"
    );
    let _ = writeln!(out, "  total spikes: {}", single.raster.spikes.len());
    out
}

/// Table VI: Sudoku WTA metrics for one and two cores.
pub fn table6(scale: Scale) -> String {
    let (n_puzzles, ticks) = scale.sudoku();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table VI — Sudoku solver (729 neurons, 1 ms step, 30 MHz), {n_puzzles} hard puzzles"
    );
    let _ = writeln!(out, "{:-<66}", "");
    // The quick run keeps the tick budget small, so the registry eases the
    // instances (restores half the blanks from the classical solution).
    let base = ScenarioParams {
        ticks: Some(ticks),
        ease: Some(scale == Scale::Quick),
        ..Default::default()
    };
    let batch = scenario::find("sudoku_batch").expect("sudoku_batch is registered");
    /// The registry hands out `dyn Workload`; Table VI decodes solutions,
    /// so it needs the concrete Sudoku workload back.
    fn as_sudoku(wl: &dyn Workload) -> &SudokuWorkload {
        wl.as_any()
            .downcast_ref::<SudokuWorkload>()
            .expect("sudoku_batch wraps SudokuWorkload")
    }
    // Each simulated system is fully independent: fan the per-puzzle
    // single-core and dual-core runs out across host threads.
    let runs: Vec<(usize, SudokuPair, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_puzzles)
            .map(|k| {
                let base = &base;
                scope.spawn(move || {
                    let params = ScenarioParams {
                        seed: Some(k as u32),
                        ..*base
                    };
                    let one_wl = batch.build(&ScenarioParams {
                        n_cores: Some(1),
                        ..params
                    });
                    let one = as_sudoku(&*one_wl)
                        .solve(50)
                        .expect("single-core sudoku failed");
                    let two_wl = batch.build(&ScenarioParams {
                        n_cores: Some(2),
                        ..params
                    });
                    let two = as_sudoku(&*two_wl)
                        .solve(50)
                        .expect("dual-core sudoku failed");
                    let givens = as_sudoku(&*one_wl).puzzle.n_givens();
                    (k, SudokuPair { one, two }, givens)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut solved = 0;
    let mut t_single = Vec::new();
    let mut t_dual = Vec::new();
    let mut m_single: Vec<Metrics> = Vec::new();
    let mut m_dual: Vec<Metrics> = Vec::new();
    for (k, pair, givens) in &runs {
        let (one, two) = (&pair.one, &pair.two);
        if one.solution.is_some() {
            solved += 1;
        }
        let steps = one.solved_at.unwrap_or(ticks);
        // The guest always executes the full tick budget; per-step cost is
        // therefore exec_time / ticks (steps-to-solve is reported per line).
        t_single.push(one.workload.time_per_tick_ms());
        t_dual.push(two.workload.time_per_tick_ms());
        m_single.push(one.workload.metrics[0]);
        m_dual.push(two.workload.metrics[0]);
        let _ = writeln!(
            out,
            "  puzzle {k}: {} in {} steps ({} givens)",
            if one.solution.is_some() {
                "solved"
            } else {
                "NOT solved"
            },
            steps,
            givens
        );
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let ts = avg(&t_single);
    let td = avg(&t_dual);
    let _ = writeln!(out, "  solved: {solved}/{n_puzzles}");
    let _ = writeln!(
        out,
        "  Execution time/step [ms] single: {ts:.4}  (paper: 2.0555)"
    );
    let _ = writeln!(
        out,
        "  Execution time/step [ms] dual:   {td:.4}  (paper: 1.2223)"
    );
    let _ = writeln!(out, "  Speedup: {:.3}x  (paper: 1.682x)", ts / td);
    let avg_m = |ms: &[Metrics], f: fn(&Metrics) -> f64| {
        ms.iter().map(f).sum::<f64>() / ms.len().max(1) as f64
    };
    let _ = writeln!(
        out,
        "  IPC (avg) single {:.4} / dual {:.4}   (paper: 0.5304 / 0.496, 0.419)",
        avg_m(&m_single, |m| m.ipc),
        avg_m(&m_dual, |m| m.ipc)
    );
    let _ = writeln!(
        out,
        "  IPC_eff (avg) single {:.4} / dual {:.4} (paper: 0.7564 / 0.8635, 0.7865)",
        avg_m(&m_single, |m| m.ipc_eff),
        avg_m(&m_dual, |m| m.ipc_eff)
    );
    let _ = writeln!(
        out,
        "  Hazard stalls [%] single {:.3} / dual {:.3} (paper: 5.136 / 6.48, 9.15)",
        avg_m(&m_single, |m| m.hazard_stall_pct),
        avg_m(&m_dual, |m| m.hazard_stall_pct)
    );
    let _ = writeln!(
        out,
        "  I$ hit [%] {:.3}, D$ hit [%] {:.4} (paper: 98.7 / ~100)",
        avg_m(&m_single, |m| m.icache_hit_pct),
        avg_m(&m_single, |m| m.dcache_hit_pct)
    );
    let _ = writeln!(
        out,
        "  Mem intensity {:.2} (paper: 21.4)",
        avg_m(&m_single, |m| m.mem_intensity)
    );
    out
}

/// Table VII: standard-cell mapping results for both libraries.
pub fn table7() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table VII — FreePDK45 and ASAP7 standard-cell mapping (model)"
    );
    let _ = writeln!(out, "{:-<70}", "");
    let r45 = AsicReport::generate(AsicLibrary::FreePdk45);
    let r7 = AsicReport::generate(AsicLibrary::Asap7);
    let _ = writeln!(
        out,
        "{:<22} {:>14} {:>14}  unit",
        "Metric", "FreePDK45", "ASAP7"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>14.3} {:>14.3}  um^2",
        "Total area", r45.total_area_um2, r7.total_area_um2
    );
    for block in [
        Block::FetchDecode,
        Block::ICache,
        Block::DCache,
        Block::Hazard,
        Block::Alu,
        Block::Npu,
        Block::Dcu,
        Block::Other,
    ] {
        let _ = writeln!(
            out,
            "{:<22} {:>14.3} {:>14.3}  um^2",
            block.name(),
            r45.block_area(block),
            r7.block_area(block)
        );
    }
    let _ = writeln!(
        out,
        "{:<22} {:>14.2} {:>14.2}  mW",
        "Total power", r45.total_power_mw, r7.total_power_mw
    );
    let _ = writeln!(
        out,
        "{:<22} {:>14.2} {:>14.2}  mW",
        "  Internal", r45.internal_mw, r7.internal_mw
    );
    let _ = writeln!(
        out,
        "{:<22} {:>14.2} {:>14.2}  mW",
        "  Switching", r45.switching_mw, r7.switching_mw
    );
    let _ = writeln!(
        out,
        "{:<22} {:>14.5} {:>14.5}  mW",
        "  Leakage", r45.leakage_mw, r7.leakage_mw
    );
    let _ = writeln!(
        out,
        "{:<22} {:>14.1} {:>14.1}  MHz",
        "Clock freq.", r45.clock_mhz, r7.clock_mhz
    );
    let _ = writeln!(
        out,
        "{:<22} {:>14.1} {:>14.1}  MUpd/s",
        "Throughput",
        r45.throughput_upd_s / 1e6,
        r7.throughput_upd_s / 1e6
    );
    let _ = writeln!(
        out,
        "{:<22} {:>14.3} {:>14.3}  GUpd/s/W",
        "Power efficiency",
        r45.upd_per_s_per_w / 1e9,
        r7.upd_per_s_per_w / 1e9
    );
    let _ = writeln!(
        out,
        "{:<22} {:>14.3} {:>14.3}  GInstr/s",
        "Peak neural IPS",
        r45.peak_neural_ips / 1e9,
        r7.peak_neural_ips / 1e9
    );
    let _ = writeln!(
        out,
        "paper: 95654.664 / 6599.375 um^2, 49.5 / 10.9 mW, 201.5 / 316.3 MHz,\n\
         \x20      67.6 / 105.4 MUpd/s, 1.371 / 9.67 GUpd/s/W, 3.022 / 4.74 GInstr/s"
    );
    out
}

/// Fig. 2: raster plot of the 80-20 network simulated on the guest cores.
/// Returns `(report, raster_csv)`.
pub fn fig2(scale: Scale) -> (String, String) {
    let (_, _, ticks) = scale.net8020();
    let wl = net8020_scenario(scale, 2);
    let res = wl.run().expect("fig2 run failed");
    let rate = res.raster.population_rate();
    let alpha = band_power(&rate, 8, 13);
    let gamma = band_power(&rate, 30, 80);
    let high = band_power(&rate, 150, 300);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 2 — 80-20 raster ({} neurons x {ticks} ms)",
        wl.cfg().n
    );
    let _ = writeln!(out, "{:-<66}", "");
    let _ = writeln!(out, "total spikes: {}", res.raster.spikes.len());
    let _ = writeln!(out, "mean rate: {:.2} Hz/neuron", res.raster.mean_rate_hz());
    let _ = writeln!(out, "alpha band power (8-13 Hz):  {alpha:.2}");
    let _ = writeln!(out, "gamma band power (30-80 Hz): {gamma:.2}");
    let _ = writeln!(out, "high band power (150-300 Hz): {high:.2}");
    let _ = writeln!(
        out,
        "rhythmic (alpha+gamma vs high-frequency floor): {:.1}x",
        (alpha + gamma) / high.max(1e-12)
    );
    let _ = writeln!(out, "\nASCII raster (rows = neuron groups, cols = time):");
    out.push_str(&res.raster.to_ascii(40, 100));
    (out, res.raster.to_csv())
}

/// Fig. 3: ISI histograms of the three arithmetic arms.
pub fn fig3(scale: Scale) -> String {
    let (n_exc, n_inh, ticks) = scale.net8020();
    let guest = net8020_scenario(scale, 1)
        .run()
        .expect("fig3 guest run failed")
        .raster;
    // The host reference arms (double / fixed) simulate the population the
    // guest image was quantised from.
    let net = Net8020Workload::population(n_exc, n_inh, NET8020_SEED);
    let mut f64_sim = F64Simulator::new(&net.network, 2, 901);
    f64_sim.noise_std = Net8020::noise_std(n_exc, n_inh);
    let double = f64_sim.run(ticks);
    let mut fx_sim = FixedSimulator::new(&net.network, 2, 902);
    fx_sim.noise_std = Net8020::noise_std(n_exc, n_inh);
    let fixed = fx_sim.run(ticks);

    let bins = 10;
    let max = 300;
    let hg = IsiHistogram::from_raster(&guest, bins, max);
    let hd = IsiHistogram::from_raster(&double, bins, max);
    let hf = IsiHistogram::from_raster(&fixed, bins, max);
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 3 — ISI histograms ({bins} ms bins, 0-{max} ms)");
    let _ = writeln!(out, "{:-<66}", "");
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>12} {:>12}",
        "ISI [ms]", "double", "fixed", "IzhiRISC-V"
    );
    let nd = hd.normalized();
    let nf = hf.normalized();
    let ng = hg.normalized();
    for i in 0..nd.len() {
        let _ = writeln!(
            out,
            "{:<10} {:>12.4} {:>12.4} {:>12.4}",
            format!("{}-{}", i as u32 * bins, (i as u32 + 1) * bins),
            nd[i],
            nf[i],
            ng[i]
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "similarity double vs fixed:      {:.3}",
        hd.similarity(&hf)
    );
    let _ = writeln!(
        out,
        "similarity double vs IzhiRISC-V: {:.3}",
        hd.similarity(&hg)
    );
    let _ = writeln!(
        out,
        "similarity fixed  vs IzhiRISC-V: {:.3}",
        hf.similarity(&hg)
    );
    let _ = writeln!(
        out,
        "peak ISI [ms]: double {}, fixed {}, guest {}",
        hd.peak_isi_ms(),
        hf.peak_isi_ms(),
        hg.peak_isi_ms()
    );
    out
}

/// Fig. 4: the WTA inhibition topology.
pub fn fig4() -> String {
    use izhi_snn::sudoku::{WtaNetwork, WtaParams};
    let puzzle = SudokuGrid([0; 81]);
    let wta = WtaNetwork::build(&puzzle, WtaParams::default());
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 4 — WTA inhibition topology (729 neurons)");
    let _ = writeln!(out, "{:-<66}", "");
    let _ = writeln!(out, "neurons: {}", wta.network.len());
    let _ = writeln!(
        out,
        "synapses: {} (28 inhibitory + 1 self-connection per neuron)",
        wta.network.n_synapses()
    );
    let set = WtaNetwork::conflict_set(4, 4, 5);
    let _ = writeln!(
        out,
        "example: neuron (row 4, col 4, digit 5) inhibits {} peers:",
        set.len()
    );
    for idx in &set {
        let (r, c, d) = WtaNetwork::coords(*idx);
        let _ = write!(out, " [{r},{c},{d}]");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "\nDOT export of that neuron's out-edges:");
    let _ = writeln!(out, "digraph wta {{");
    let _ = writeln!(out, "  n_4_4_5 [color=green];");
    for idx in &set {
        let (r, c, d) = WtaNetwork::coords(*idx);
        let _ = writeln!(out, "  n_4_4_5 -> n_{r}_{c}_{d} [color=blue];");
    }
    let _ = writeln!(out, "}}");
    out
}

/// Fig. 5: floorplan area fractions for both libraries.
pub fn fig5() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 5 — core floorplan area fractions (model)");
    let _ = writeln!(out, "{:-<66}", "");
    for lib in [AsicLibrary::FreePdk45, AsicLibrary::Asap7] {
        let r = AsicReport::generate(lib);
        let _ = writeln!(out, "-- {}:", lib.name());
        for (block, frac) in r.area_fractions() {
            let bar = "#".repeat((frac * 120.0).round() as usize);
            let _ = writeln!(
                out,
                "  {:<18} {:>5.1} % {}",
                block.name(),
                frac * 100.0,
                bar
            );
        }
    }
    let _ = writeln!(out, "paper claims: NPU <= ~20 % of core area, DCU < 2 %");
    out
}

/// §VI-C ablation: per-timestep cost of NPU vs base-ISA fixed point vs
/// soft-float, on the Sudoku-sized network.
pub fn ablation_softfloat() -> String {
    let puzzle = hard_puzzle(0);
    let ticks = 60;
    let mut rows = Vec::new();
    for variant in [Variant::Npu, Variant::BaseFixed, Variant::SoftFloat] {
        let wl = SudokuWorkload::with_params(
            puzzle,
            izhi_snn::sudoku::WtaParams::default(),
            ticks,
            1,
            42,
            variant,
        );
        let res = wl.solve(50).expect("ablation run failed");
        rows.push((
            variant,
            res.workload.time_per_tick_ms(),
            res.workload.instret,
        ));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation §VI-C — per-timestep cost by arithmetic (729 neurons)"
    );
    let _ = writeln!(out, "{:-<66}", "");
    let _ = writeln!(
        out,
        "{:<12} {:>16} {:>16} {:>10}",
        "variant", "ms/step @30MHz", "instructions", "vs NPU"
    );
    let npu_t = rows[0].1;
    for (v, t, i) in &rows {
        let _ = writeln!(
            out,
            "{:<12} {:>16.4} {:>16} {:>9.1}x",
            format!("{v:?}"),
            t,
            i,
            t / npu_t
        );
    }
    let _ = writeln!(
        out,
        "paper: ~40x reduction in execution time per timestep vs the\n\
         soft-float implementation (§VI-C)"
    );
    out
}

/// §V-B ablation: the proposed CSR writeback for nm results removes the
/// nm-writeback hazard stalls.
pub fn ablation_csr_writeback() -> String {
    let (n_exc, n_inh, ticks) = Scale::Quick.net8020();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation §V-B — CSR writeback for nm-instruction results"
    );
    let _ = writeln!(out, "{:-<72}", "");
    let _ = writeln!(
        out,
        "The paper's kernel consumes each nm result immediately (its focus was\n\
         correctness, §V-B), so nm-writeback hazards stall the pipeline; CSR\n\
         writeback is the proposed fix. A scheduled kernel hides them instead."
    );
    for (label, scheduled, csr) in [
        (
            "naive kernel, register-file writeback (paper)",
            false,
            false,
        ),
        ("naive kernel, CSR writeback (proposed fix)   ", false, true),
        ("hazard-scheduled kernel (compiler fix)       ", true, false),
    ] {
        let mut wl = Net8020Workload::sized(n_exc, n_inh, ticks, 1, 5, Variant::Npu);
        wl.cfg.scheduled = scheduled;
        wl.cfg.system.csr_writeback = csr;
        let res = wl.run().expect("csr ablation run failed");
        let m = &res.metrics[0];
        let _ = writeln!(
            out,
            "  {label}: hazard stalls {:.3} %, IPC {:.4}, exec {:.4} s",
            m.hazard_stall_pct, m.ipc, m.exec_time_s
        );
    }
    out
}

/// Design-choice ablation: cache-geometry sweep on the 80-20 workload
/// (the §VI-A note — the 3-core MAX10 build needed "drastically" smaller
/// caches and paid for it).
pub fn ablation_cache_sweep() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation — cache geometry on the 80-20 workload (quick scale)"
    );
    let _ = writeln!(out, "{:-<72}", "");
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>10} {:>12}",
        "I$/D$ size", "IPC", "I$ hit %", "D$ hit %", "exec [ms]"
    );
    for kib in [1u32, 2, 4, 8] {
        let mut wl = Net8020Workload::sized(160, 40, 200, 1, 5, Variant::Npu);
        wl.cfg.system.icache = izhi_sim::CacheConfig {
            size_bytes: kib * 1024,
            line_bytes: 16,
        };
        wl.cfg.system.dcache = izhi_sim::CacheConfig {
            size_bytes: kib * 1024,
            line_bytes: 32,
        };
        let res = wl.run().expect("cache sweep run failed");
        let m = &res.metrics[0];
        let _ = writeln!(
            out,
            "{:<16} {:>10.4} {:>10.2} {:>10.2} {:>12.2}",
            format!("{kib} KiB"),
            m.ipc,
            m.icache_hit_pct,
            m.dcache_hit_pct,
            m.exec_time_s * 1000.0
        );
    }
    // The paper's 3-core fallback: 20 MHz + 1 KiB caches.
    let mut wl = Net8020Workload::sized(160, 40, 200, 3, 5, Variant::Npu);
    wl.cfg.system = izhi_sim::SystemConfig::max10_triple_core_reduced();
    wl.cfg.system.sdram_size = 32 * 1024 * 1024;
    let three = wl.run().expect("3-core run failed");
    let two = Net8020Workload::sized(160, 40, 200, 2, 5, Variant::Npu)
        .run()
        .unwrap();
    let _ = writeln!(
        out,
        "\n3 cores @ 20 MHz, 1 KiB caches (the paper's fallback): {:.2} ms\n\
         2 cores @ 30 MHz, 4 KiB caches (the shipped config):    {:.2} ms\n\
         => the paper kept the dual-core build ({:.2}x faster)",
        three.exec_time_s() * 1000.0,
        two.exec_time_s() * 1000.0,
        three.exec_time_s() / two.exec_time_s()
    );
    out
}

/// Strong-scaling study (1..8 cores on the 80-20 workload) plus the
/// paper's §VI-A projection discussion: the conclusion notes that beyond
/// tens of cores "a different type of connectivity is in order, e.g. a
/// NoC structure in place of a common bus". We measure the shared-bus
/// build directly and extrapolate both interconnects analytically.
pub fn scaling_study() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Scaling — 80-20 workload, 1..8 cores on the shared bus (measured)"
    );
    let _ = writeln!(out, "{:-<72}", "");
    let _ = writeln!(
        out,
        "{:<7} {:>12} {:>10} {:>12} {:>14}",
        "cores", "exec [ms]", "speedup", "efficiency", "bus util [%]"
    );
    let base = Net8020Workload::sized(320, 80, 150, 1, 5, Variant::Npu)
        .run()
        .expect("scaling base run failed");
    let t1 = base.exec_time_s();
    for cores in [1u32, 2, 4, 8] {
        let res = Net8020Workload::sized(320, 80, 150, cores, 5, Variant::Npu)
            .run()
            .expect("scaling run failed");
        let t = res.exec_time_s();
        let speedup = t1 / t;
        // Bus utilisation approximated from miss traffic over wall cycles.
        let miss_cycles: u64 = res
            .counters
            .iter()
            .map(|c| (c.icache_misses + c.dcache_misses) * 50)
            .sum();
        let util = miss_cycles as f64 / res.cycles.max(1) as f64 * 100.0;
        let _ = writeln!(
            out,
            "{:<7} {:>12.2} {:>9.2}x {:>11.1}% {:>14.1}",
            cores,
            t * 1000.0,
            speedup,
            speedup / cores as f64 * 100.0,
            util.min(100.0)
        );
    }
    let _ = writeln!(
        out,
        "\nAnalytical projection to the Agilex-7 192-core regime (fixed per-core\n\
         miss traffic m = 0.006/instr, 66-cycle refills, IPC0 = 0.72):"
    );
    let _ = writeln!(
        out,
        "{:<7} {:>22} {:>22}",
        "cores", "shared bus [eff. IPC]", "4x4-mesh NoC [eff. IPC]"
    );
    for n in [16u32, 64, 128, 192] {
        // Shared bus: one transaction at a time. Offered load per core =
        // m * IPC * 66 cycles; the bus saturates at total load 1.
        let m = 0.006;
        let refill = 66.0;
        let ipc0: f64 = 0.72;
        let offered = m * ipc0 * refill; // bus cycles per core per cycle
        let bus_ipc = if (n as f64) * offered <= 1.0 {
            ipc0
        } else {
            ipc0 / ((n as f64) * offered) // throughput-bound
        };
        // NoC: per-link capacity; bisection of a sqrt(n) x sqrt(n) mesh
        // grows with sqrt(n), so per-core capacity degrades as sqrt(n)/n.
        let links = (n as f64).sqrt();
        let noc_ipc = if (n as f64) * offered <= links {
            ipc0
        } else {
            ipc0 * links / ((n as f64) * offered)
        };
        let _ = writeln!(out, "{:<7} {:>22.3} {:>22.3}", n, bus_ipc, noc_ipc);
    }
    let _ = writeln!(
        out,
        "=> the common bus collapses near ~25 cores for this traffic, while a\n\
         mesh sustains it into the low hundreds — quantifying the paper's\n\
         closing remark that a NoC is required for the 192-core system."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a of `fig3(Scale::Quick)`'s report, recorded before its host
    /// reference arms were rebuilt from the shared population recipe.
    const FIG3_QUICK: u64 = 0x01c8_0491_3303_84ba;

    /// The report prints the guest arm beside both host reference arms
    /// (double and fixed point), so a host arm that simulates another
    /// network or another thalamic noise than the guest runs moves it.
    #[test]
    fn fig3_quick_report_is_pinned() {
        let report = fig3(Scale::Quick);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in report.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(
            h, FIG3_QUICK,
            "computed {h:#018x} for the report:\n{report}"
        );
    }
}
