//! FPGA resource models for the two boards the paper uses
//! (Tables III and IV).
//!
//! Model: `resource(n_cores) = overhead + n_cores × per_core`, where the
//! per-core vector is derived from the block inventory and the overhead
//! covers the shared system (bus fabric, SDRAM controller, GHRD shell on
//! Agilex). The per-core and overhead constants are calibrated against one
//! row of each published table; the other rows are *predictions*, printed
//! beside the paper's by the `tables` experiments `table3` and `table4`.

use crate::blocks;

/// Resource vector in the units of the respective table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resources {
    /// Logic elements (MAX10 LEs) or ALMs (Agilex).
    pub logic: f64,
    /// Flip-flops.
    pub ff: f64,
    /// Embedded memory: Kb on MAX10, M20K blocks on Agilex.
    pub memory: f64,
    /// Embedded multipliers (9-bit on MAX10) or DSP blocks (Agilex).
    pub dsp: f64,
}

impl Resources {
    fn scale_add(&self, other: &Resources, k: f64) -> Resources {
        Resources {
            logic: self.logic + k * other.logic,
            ff: self.ff + k * other.ff,
            memory: self.memory + k * other.memory,
            dsp: self.dsp + k * other.dsp,
        }
    }
}

/// The two FPGA targets of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpgaTarget {
    /// Intel MAX10 10M50DAF484C7G on the TerasIC DE10-Lite (30 MHz build).
    Max10,
    /// Intel Agilex-7 AGMF039R47A1E2VR0 M-Series dev kit (100 MHz build).
    Agilex7,
}

impl FpgaTarget {
    /// Device capacities (from the percentages printed in the paper's
    /// tables: capacity = value / fraction).
    pub fn capacity(self) -> Resources {
        match self {
            // 49248 LE = 99 %, 28235 FF = 51 %, 346.468 Kb = 21 %, 68 = 24 %.
            FpgaTarget::Max10 => Resources {
                logic: 49760.0,
                ff: 55363.0,
                memory: 1649.8,
                dsp: 288.0,
            },
            // 107144 ALM = 8 %, 95624 FF = 2 %, 390 M20K = 2 %, 152 DSP = 1 %.
            FpgaTarget::Agilex7 => Resources {
                logic: 1_339_300.0,
                ff: 4_781_200.0,
                memory: 19_500.0,
                dsp: 15_200.0,
            },
        }
    }

    /// Per-core resource cost.
    ///
    /// MAX10: LEs track the gate inventory at ~0.24 LE/GE (4-LUT packing of
    /// the mostly-arithmetic datapath), FFs come from the inventory, cache
    /// arrays plus scratchpad share land in M9K Kb, and the NPU/ALU
    /// multipliers consume 9-bit slices. Agilex: ALMs are denser (~0.070
    /// ALM/GE) and DSPs absorb two 9-bit slices each. Constants calibrated
    /// on the dual-core MAX10 row and the 32-core Agilex row.
    pub fn per_core(self) -> Resources {
        let gates = blocks::core_gates();
        let ffs = blocks::core_ffs();
        let mult9 = blocks::core_mult9();
        match self {
            FpgaTarget::Max10 => Resources {
                logic: gates * 0.2444,
                ff: ffs + 0.0,
                memory: blocks::core_mem_bits() / 1024.0 + 101.2, // + scratch share
                dsp: mult9,
            },
            FpgaTarget::Agilex7 => Resources {
                logic: gates * 0.0706,
                ff: ffs * 0.4582,
                memory: 16.0,
                dsp: 9.5,
            },
        }
    }

    /// Shared-system overhead (bus, SDRAM controller; GHRD shell on
    /// Agilex).
    pub fn overhead(self) -> Resources {
        match self {
            FpgaTarget::Max10 => Resources {
                logic: 3950.0,
                ff: 3035.0,
                memory: 0.0,
                dsp: 0.0,
            },
            FpgaTarget::Agilex7 => Resources {
                logic: 2533.0,
                ff: 3251.0,
                memory: 134.0,
                dsp: 0.0,
            },
        }
    }

    /// Build frequency reported by the paper.
    pub fn clock_mhz(self) -> f64 {
        match self {
            FpgaTarget::Max10 => 30.0,
            FpgaTarget::Agilex7 => 100.0,
        }
    }
}

/// A resource-utilisation report for `n_cores` on a target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaReport {
    /// Target device.
    pub target: FpgaTarget,
    /// Number of cores.
    pub n_cores: u32,
    /// Absolute usage.
    pub used: Resources,
    /// Usage as a percentage of capacity.
    pub pct: Resources,
    /// Whether the design fits.
    pub fits: bool,
}

impl FpgaReport {
    /// Predict utilisation for `n_cores` cores.
    pub fn for_cores(target: FpgaTarget, n_cores: u32) -> FpgaReport {
        let used = target
            .overhead()
            .scale_add(&target.per_core(), n_cores as f64);
        let cap = target.capacity();
        let pct = Resources {
            logic: used.logic / cap.logic * 100.0,
            ff: used.ff / cap.ff * 100.0,
            memory: used.memory / cap.memory * 100.0,
            dsp: used.dsp / cap.dsp * 100.0,
        };
        let fits = pct.logic <= 100.0 && pct.ff <= 100.0 && pct.memory <= 100.0 && pct.dsp <= 100.0;
        FpgaReport {
            target,
            n_cores,
            used,
            pct,
            fits,
        }
    }

    /// The largest core count that fits the device (the paper projects
    /// "up to 192 cores" on Agilex-7, §VI-A).
    pub fn max_cores(target: FpgaTarget) -> u32 {
        let mut n = 1;
        while FpgaReport::for_cores(target, n + 1).fits {
            n += 1;
            if n > 4096 {
                break;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol_pct: f64) -> bool {
        (a - b).abs() / b.abs() * 100.0 <= tol_pct
    }

    #[test]
    fn max10_dual_core_matches_table_iii() {
        let r = FpgaReport::for_cores(FpgaTarget::Max10, 2);
        assert!(close(r.used.logic, 49248.0, 2.0), "LE {}", r.used.logic);
        assert!(close(r.used.ff, 28235.0, 5.0), "FF {}", r.used.ff);
        assert!(close(r.used.memory, 346.468, 5.0), "BRAM {}", r.used.memory);
        assert!(close(r.used.dsp, 68.0, 1.0), "mult {}", r.used.dsp);
        assert!(r.fits, "the paper's build fits at 99 % LE");
        assert!(r.pct.logic > 95.0, "LE utilisation {}", r.pct.logic);
    }

    #[test]
    fn max10_three_cores_do_not_fit_as_configured() {
        // §VI-A: three cores only fit after shrinking the caches.
        let r = FpgaReport::for_cores(FpgaTarget::Max10, 3);
        assert!(!r.fits);
    }

    #[test]
    fn agilex_rows_match_table_iv() {
        for (n, alm, ff, ram, dsp) in [
            (16u32, 107144.0, 95624.0, 390.0, 152.0),
            (32, 216448.0, 186760.0, 646.0, 304.0),
            (64, 420977.0, 372741.0, 1158.0, 608.0),
        ] {
            let r = FpgaReport::for_cores(FpgaTarget::Agilex7, n);
            assert!(
                close(r.used.logic, alm, 3.0),
                "{n} cores ALM {}",
                r.used.logic
            );
            assert!(close(r.used.ff, ff, 3.0), "{n} cores FF {}", r.used.ff);
            assert!(
                close(r.used.memory, ram, 3.0),
                "{n} cores RAM {}",
                r.used.memory
            );
            assert!(close(r.used.dsp, dsp, 1.0), "{n} cores DSP {}", r.used.dsp);
            assert!(r.fits);
        }
    }

    #[test]
    fn agilex_supports_paper_projection_of_192_cores() {
        let max = FpgaReport::max_cores(FpgaTarget::Agilex7);
        assert!(max >= 192, "only {max} cores fit");
        // ...but not unboundedly more (the projection was resource-based).
        assert!(max <= 280, "{max} cores is beyond the plausible envelope");
    }

    #[test]
    fn utilisation_is_monotone_in_cores() {
        let mut prev = 0.0;
        for n in 1..=64 {
            let r = FpgaReport::for_cores(FpgaTarget::Agilex7, n);
            assert!(r.used.logic > prev);
            prev = r.used.logic;
        }
    }
}
