//! Cross-crate integration tests asserting the paper's headline claims at
//! reduced scale (the `tables` binary prints the full-scale numbers beside
//! the paper's: `tables all`).

use izhirisc::hw::asic::{AsicLibrary, AsicReport};
use izhirisc::hw::blocks;
use izhirisc::hw::fpga::{FpgaReport, FpgaTarget};
use izhirisc::programs::engine::Variant;
use izhirisc::programs::net8020::Net8020Workload;
use izhirisc::programs::scenario::Workload as _;
use izhirisc::programs::sudoku_prog::SudokuWorkload;
use izhirisc::snn::sudoku::SudokuGrid;

/// §VI-B: the dual-core system speeds up the 80-20 simulation by ~1.6-2x.
#[test]
fn claim_dual_core_speedup() {
    let one = Net8020Workload::sized(80, 20, 150, 1, 5, Variant::Npu)
        .run()
        .unwrap();
    let two = Net8020Workload::sized(80, 20, 150, 2, 5, Variant::Npu)
        .run()
        .unwrap();
    let speedup = one.exec_time_s() / two.exec_time_s();
    assert!(
        (1.3..=2.05).contains(&speedup),
        "dual-core speedup {speedup:.3} outside the paper's regime"
    );
}

/// §VI-B: IPC_eff exceeds plain IPC (the NPU packs 19 equivalent ops).
#[test]
fn claim_ipc_eff_exceeds_ipc() {
    let res = Net8020Workload::sized(80, 20, 150, 1, 5, Variant::Npu)
        .run()
        .unwrap();
    let m = &res.metrics[0];
    assert!(m.ipc_eff > m.ipc, "IPC_eff {} <= IPC {}", m.ipc_eff, m.ipc);
    assert!(m.ipc <= 1.0, "a scalar in-order core cannot exceed IPC 1");
}

/// §VI-C: the NPU/DCU solver is dramatically (paper: ~40x) faster per
/// timestep than the soft-float implementation.
#[test]
fn claim_softfloat_slowdown() {
    let puzzle = SudokuGrid::canonical_solution();
    let mut p = puzzle;
    for i in [0, 10, 20] {
        p.0[i] = 0;
    }
    let npu = SudokuWorkload::with_params(
        p,
        izhirisc::snn::sudoku::WtaParams::default(),
        30,
        1,
        42,
        Variant::Npu,
    )
    .solve(30)
    .unwrap();
    let soft = SudokuWorkload::with_params(
        p,
        izhirisc::snn::sudoku::WtaParams::default(),
        30,
        1,
        42,
        Variant::SoftFloat,
    )
    .solve(30)
    .unwrap();
    let ratio = soft.workload.exec_time_s() / npu.workload.exec_time_s();
    assert!(
        ratio > 15.0,
        "soft-float only {ratio:.1}x slower — the paper reports ~40x"
    );
}

/// §VI-D: the NPU occupies no more than roughly 20 % of the core and the
/// DCU under 2 %.
#[test]
fn claim_npu_dcu_area_fractions() {
    assert!(blocks::npu_area_fraction() <= 0.25);
    assert!(blocks::dcu_area_fraction() < 0.02 + 0.005);
}

/// Table VII: ASAP7 reaches 316.3 MHz / 105.4 MUpd/s / 9.67 GUpd/s/W.
#[test]
fn claim_asap7_figures() {
    let r = AsicReport::generate(AsicLibrary::Asap7);
    assert!((r.clock_mhz - 316.3).abs() / 316.3 < 0.02);
    assert!((r.throughput_upd_s - 105.4e6).abs() / 105.4e6 < 0.02);
    assert!((r.upd_per_s_per_w - 9.67e9).abs() / 9.67e9 < 0.08);
}

/// §VI-A: two cores fill the MAX10 (99 % LE); 192+ cores fit the Agilex-7.
#[test]
fn claim_fpga_capacity() {
    let max10 = FpgaReport::for_cores(FpgaTarget::Max10, 2);
    assert!(max10.fits && max10.pct.logic > 90.0);
    assert!(FpgaReport::max_cores(FpgaTarget::Agilex7) >= 192);
}

/// The guest workload is deterministic and core-count invariant: the same
/// image produces the same spikes on 1, 2 and 3 cores.
#[test]
fn claim_partitioning_preserves_semantics() {
    let mut rasters = Vec::new();
    for cores in [1u32, 2, 3] {
        let res = Net8020Workload::sized(40, 10, 120, cores, 9, Variant::Npu)
            .run()
            .unwrap();
        let mut spikes = res.raster.spikes;
        spikes.sort_unstable();
        rasters.push(spikes);
    }
    assert_eq!(rasters[0], rasters[1]);
    assert_eq!(rasters[0], rasters[2]);
    assert!(!rasters[0].is_empty());
}

/// The three arithmetic variants agree on population statistics (Fig. 3's
/// premise: fixed point does not distort the dynamics).
#[test]
fn claim_arithmetic_variants_agree() {
    let npu = Net8020Workload::sized(40, 10, 150, 1, 9, Variant::Npu)
        .run()
        .unwrap();
    let base = Net8020Workload::sized(40, 10, 150, 1, 9, Variant::BaseFixed)
        .run()
        .unwrap();
    let a = npu.raster.spikes.len() as f64;
    let b = base.raster.spikes.len() as f64;
    assert!(a > 0.0 && b > 0.0);
    assert!(
        (a - b).abs() / a.max(b) < 0.35,
        "NPU {a} vs base-fixed {b} spikes"
    );
}
