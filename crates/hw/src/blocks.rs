//! Technology-independent complexity descriptors for the IzhiRISC-V core's
//! pipeline blocks.
//!
//! Gate counts are expressed in *gate equivalents* (GE, NAND2-equivalents)
//! and were inferred once from the paper's FreePDK45 placement areas
//! (Table VII) at the calibration density of 1 GE ≈ 1 µm² in that library.
//! Everything downstream (ASAP7 shrink, per-block fractions, FPGA mapping)
//! is *predicted* from these numbers and printed beside the paper's by the
//! `tables` experiments `table7` (per-block areas) and `fig5` (area
//! fractions) — the per-block agreement is the validation of the model.

/// The blocks the paper's floorplan distinguishes (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Block {
    /// Merged Fetch/Decode stage.
    FetchDecode,
    /// Instruction cache (tag + data arrays + control).
    ICache,
    /// Data cache.
    DCache,
    /// Hazard/forwarding control.
    Hazard,
    /// The base integer ALU (including the M-extension multiplier).
    Alu,
    /// Neuron Processing Unit (the paper's main addition).
    Npu,
    /// Decay Unit.
    Dcu,
    /// Everything else (register file, CSRs, bus interface).
    Other,
}

impl Block {
    /// Display name matching the paper's tables.
    pub const fn name(self) -> &'static str {
        match self {
            Block::FetchDecode => "Fetch/Decode",
            Block::ICache => "Instruction Cache",
            Block::DCache => "Data Cache",
            Block::Hazard => "Hazard Unit",
            Block::Alu => "ALU",
            Block::Npu => "NPU",
            Block::Dcu => "DCU",
            Block::Other => "Other",
        }
    }
}

/// Complexity of one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockComplexity {
    /// Which block.
    pub block: Block,
    /// Logic complexity in gate equivalents.
    pub gates: f64,
    /// Flip-flop count.
    pub ffs: f64,
    /// Embedded memory bits (cache arrays).
    pub mem_bits: f64,
    /// 9-bit multiplier slices consumed on FPGA (NPU/ALU datapaths).
    pub mult9: f64,
}

/// The calibrated core inventory. Gates from Table VII (FreePDK45, µm² at
/// ~1 µm²/GE); FF/memory/multiplier splits from the architecture: 4 KiB
/// I-cache + 4 KiB D-cache arrays, 32×32 register file, Q-format multiplier
/// array in the NPU (five 16/18-bit products → 9-bit slices).
pub const CORE_BLOCKS: [BlockComplexity; 8] = [
    BlockComplexity {
        block: Block::FetchDecode,
        gates: 16924.0,
        ffs: 1900.0,
        mem_bits: 0.0,
        mult9: 0.0,
    },
    BlockComplexity {
        block: Block::ICache,
        gates: 10589.0,
        ffs: 900.0,
        mem_bits: 36864.0,
        mult9: 0.0,
    },
    BlockComplexity {
        block: Block::DCache,
        gates: 12097.0,
        ffs: 1100.0,
        mem_bits: 36864.0,
        mult9: 0.0,
    },
    BlockComplexity {
        block: Block::Hazard,
        gates: 146.0,
        ffs: 40.0,
        mem_bits: 0.0,
        mult9: 0.0,
    },
    BlockComplexity {
        block: Block::Alu,
        gates: 19874.0,
        ffs: 1500.0,
        mem_bits: 0.0,
        mult9: 12.0,
    },
    BlockComplexity {
        block: Block::Npu,
        gates: 19516.0,
        ffs: 1800.0,
        mem_bits: 0.0,
        mult9: 20.0,
    },
    BlockComplexity {
        block: Block::Dcu,
        gates: 2006.0,
        ffs: 160.0,
        mem_bits: 0.0,
        mult9: 0.0,
    },
    BlockComplexity {
        block: Block::Other,
        gates: 11449.0,
        ffs: 5200.0,
        mem_bits: 0.0,
        mult9: 2.0,
    },
];

/// Total logic gates of one core.
pub fn core_gates() -> f64 {
    CORE_BLOCKS.iter().map(|b| b.gates).sum()
}

/// Total flip-flops of one core.
pub fn core_ffs() -> f64 {
    CORE_BLOCKS.iter().map(|b| b.ffs).sum()
}

/// Total embedded memory bits of one core (cache arrays).
pub fn core_mem_bits() -> f64 {
    CORE_BLOCKS.iter().map(|b| b.mem_bits).sum()
}

/// Total 9-bit multiplier slices of one core.
pub fn core_mult9() -> f64 {
    CORE_BLOCKS.iter().map(|b| b.mult9).sum()
}

/// NPU share of the core's logic area — the paper claims "no more than
/// roughly 20 %" (§VI-D).
pub fn npu_area_fraction() -> f64 {
    CORE_BLOCKS
        .iter()
        .find(|b| b.block == Block::Npu)
        .map(|b| b.gates / core_gates())
        .unwrap_or(0.0)
}

/// DCU share of the core's logic area — "< 2 %" per the paper.
pub fn dcu_area_fraction() -> f64 {
    CORE_BLOCKS
        .iter()
        .find(|b| b.block == Block::Dcu)
        .map(|b| b.gates / core_gates())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_covers_all_blocks() {
        let mut names = std::collections::HashSet::new();
        for b in CORE_BLOCKS {
            assert!(names.insert(b.block), "duplicate {:?}", b.block);
            assert!(b.gates > 0.0);
        }
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn npu_fraction_matches_paper_claim() {
        let f = npu_area_fraction();
        assert!((0.15..=0.25).contains(&f), "NPU fraction {f}");
    }

    #[test]
    fn dcu_fraction_matches_paper_claim() {
        let f = dcu_area_fraction();
        assert!(f < 0.03, "DCU fraction {f}");
    }

    #[test]
    fn cache_bits_match_geometry() {
        // 4 KiB data + tags per cache ≈ 36 Kib.
        assert!((core_mem_bits() - 2.0 * 36864.0).abs() < 1.0);
    }
}
