//! Direct-mapped write-back cache model.
//!
//! Used for both the I-cache (read-only) and D-cache of each core. The
//! model tracks tags, valid and dirty bits only — data always lives in the
//! functional [`crate::mem::MainMemory`], so the cache purely produces
//! timing (hit/miss and writeback traffic).

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes (power of two).
    pub size_bytes: u32,
    /// Line size in bytes (power of two, ≥ 4).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// Number of lines.
    pub const fn lines(&self) -> u32 {
        self.size_bytes / self.line_bytes
    }

    /// Words per line.
    pub const fn line_words(&self) -> u32 {
        self.line_bytes / 4
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        // The MAX10 build gives each core a few KiB of cache; 4 KiB with
        // 16-byte lines reproduces the paper's hit-rate regime.
        CacheConfig {
            size_bytes: 4096,
            line_bytes: 16,
        }
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Line present.
    Hit,
    /// Line absent; refill needed. `writeback` is true when the evicted
    /// line was dirty and must be written to SDRAM first.
    Miss {
        /// Evicted line must be written back.
        writeback: bool,
    },
}

/// A direct-mapped, write-back, write-allocate cache (tags only).
///
/// Each line packs valid bit, dirty bit and tag into one `u32`
/// (`VALID` | `DIRTY` | tag), so a probe touches one
/// array slot instead of three parallel ones — this is on the simulator's
/// per-instruction fast path. Tags fit below bit 30 because
/// `offset_bits + index_bits >= 2` for every legal geometry.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<u32>,
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
    offset_bits: u32,
    index_bits: u32,
}

impl Cache {
    /// Line-present bit of a packed line entry.
    const VALID: u32 = 1 << 31;
    /// Line-modified bit of a packed line entry.
    const DIRTY: u32 = 1 << 30;

    /// Build an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.size_bytes.is_power_of_two(),
            "cache size must be a power of two"
        );
        assert!(cfg.line_bytes.is_power_of_two() && cfg.line_bytes >= 4);
        assert!(cfg.size_bytes >= cfg.line_bytes);
        let lines = cfg.lines();
        Cache {
            cfg,
            lines: vec![0; lines as usize],
            hits: 0,
            misses: 0,
            writebacks: 0,
            offset_bits: cfg.line_bytes.trailing_zeros(),
            index_bits: lines.trailing_zeros(),
        }
    }

    /// Geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    #[inline]
    fn index_tag(&self, addr: u32) -> (usize, u32) {
        let line = addr >> self.offset_bits;
        let index = (line & ((1 << self.index_bits) - 1)) as usize;
        let tag = line >> self.index_bits;
        (index, tag)
    }

    /// Access `addr`; `write` marks the line dirty on hit or after refill.
    #[inline]
    pub fn access(&mut self, addr: u32, write: bool) -> Access {
        let (index, tag) = self.index_tag(addr);
        let entry = self.lines[index];
        if entry & !Self::DIRTY == Self::VALID | tag {
            self.hits += 1;
            if write {
                self.lines[index] = entry | Self::DIRTY;
            }
            return Access::Hit;
        }
        self.misses += 1;
        let writeback = entry & (Self::VALID | Self::DIRTY) == Self::VALID | Self::DIRTY;
        if writeback {
            self.writebacks += 1;
        }
        self.lines[index] = Self::VALID | tag | if write { Self::DIRTY } else { 0 };
        Access::Miss { writeback }
    }

    /// Hit rate in percent.
    pub fn hit_rate_pct(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            100.0
        } else {
            self.hits as f64 / total as f64 * 100.0
        }
    }

    /// Invalidate everything and clear statistics.
    pub fn reset(&mut self) {
        self.lines.iter_mut().for_each(|l| *l = 0);
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }

    /// Non-mutating read-probe: would `access(addr, false)` hit? Touches
    /// neither the line array nor the statistics — the superblock fetch
    /// path uses it to end a block *before* a miss moves any state.
    #[inline]
    #[must_use]
    pub fn would_hit(&self, addr: u32) -> bool {
        let (index, tag) = self.index_tag(addr);
        self.lines[index] & !Self::DIRTY == Self::VALID | tag
    }

    /// Snapshot (hits, misses) — used for ROI deltas.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 16,
        }) // 16 lines
    }

    #[test]
    fn cold_miss_then_hits_within_line() {
        let mut c = small();
        assert!(matches!(
            c.access(0x100, false),
            Access::Miss { writeback: false }
        ));
        for off in [0, 4, 8, 12] {
            assert_eq!(c.access(0x100 + off, false), Access::Hit);
        }
        assert_eq!(c.misses, 1);
        assert_eq!(c.hits, 4);
    }

    #[test]
    fn conflicting_lines_evict() {
        let mut c = small();
        // 0x000 and 0x100 map to the same index (index bits cover 256 B).
        c.access(0x000, false);
        c.access(0x100, false);
        assert!(matches!(c.access(0x000, false), Access::Miss { .. }));
        assert_eq!(c.misses, 3);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.access(0x000, true); // miss, allocate dirty
        match c.access(0x100, false) {
            Access::Miss { writeback } => assert!(writeback),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.writebacks, 1);
        // Clean eviction has no writeback.
        match c.access(0x200, false) {
            Access::Miss { writeback } => assert!(!writeback),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0x40, false); // clean line
        c.access(0x40, true); // write hit -> dirty
        match c.access(0x140, false) {
            Access::Miss { writeback } => assert!(writeback),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sequential_walk_hit_rate() {
        let mut c = Cache::new(CacheConfig::default()); // 4 KiB / 16 B
        for addr in (0..16 * 1024).step_by(4) {
            c.access(addr, false);
        }
        // 1 miss per 4 words.
        assert_eq!(c.misses, 1024);
        assert_eq!(c.hits, 3072);
        assert!((c.hit_rate_pct() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears() {
        let mut c = small();
        c.access(0, true);
        c.reset();
        assert_eq!(c.stats(), (0, 0));
        assert!(matches!(
            c.access(0, false),
            Access::Miss { writeback: false }
        ));
    }
}
