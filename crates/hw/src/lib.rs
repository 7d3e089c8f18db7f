//! # izhi-hw — FPGA resource and ASIC standard-cell models
//!
//! The paper evaluates the IzhiRISC-V core on two FPGAs (Intel MAX10 and
//! Agilex-7, Tables III/IV) and maps it to two standard-cell libraries
//! (FreePDK45 and ASAP7 through OpenROAD, Table VII and Fig. 5). Neither
//! Quartus nor OpenROAD exists in this environment, so this crate provides
//! **calibrated analytical models** (see DESIGN.md): each pipeline block is
//! described by a technology-independent complexity descriptor (gate count,
//! flip-flop count, memory bits, multiplier count), and per-target cost
//! models translate those descriptors into LE/ALM/FF/BRAM/DSP or µm²/mW/MHz
//! figures. The block complexities are calibrated once against the paper's
//! published totals; everything else (core-count scaling, per-block area
//! fractions, 45 nm → 7 nm shrink) is then *predicted* by the model and
//! printed beside the paper's figures by the `tables` experiments
//! `table3`, `table4`, `table7` and `fig5`.

pub mod asic;
pub mod blocks;
pub mod fpga;

pub use asic::{AsicLibrary, AsicReport};
pub use blocks::{Block, BlockComplexity, CORE_BLOCKS};
pub use fpga::{FpgaReport, FpgaTarget};
