//! Physical memory map and backing storage.
//!
//! The simulated SoC uses the same split the paper describes for the DE10
//! board: instructions and bulk data live in off-chip SDRAM (slow, cached),
//! hot network state lives in on-chip memory (single-cycle scratchpad), and
//! a small MMIO block provides platform services.

use izhi_isa::inst::{LoadOp, StoreOp};

/// Address-space layout constants.
pub mod layout {
    /// SDRAM base (instructions + bulk data; cached).
    pub const SDRAM_BASE: u32 = 0x0000_0000;
    /// Default SDRAM size (16 MiB is plenty for every workload here).
    pub const SDRAM_DEFAULT_SIZE: u32 = 16 * 1024 * 1024;
    /// On-chip scratchpad base (single-cycle, uncached, dual-ported).
    pub const SCRATCH_BASE: u32 = 0x1000_0000;
    /// Default scratchpad size (256 KiB — generous M9K/M20K budget).
    pub const SCRATCH_DEFAULT_SIZE: u32 = 256 * 1024;
    /// MMIO device block base.
    pub const MMIO_BASE: u32 = 0xF000_0000;
    /// MMIO block size.
    pub const MMIO_SIZE: u32 = 0x100;

    // MMIO register offsets.
    /// Write: emit a byte to the console.
    pub const MMIO_CONSOLE: u32 = 0x00;
    /// Read: this core's hart id.
    pub const MMIO_COREID: u32 = 0x04;
    /// Read: number of cores in the system.
    pub const MMIO_NCORES: u32 = 0x08;
    /// Read: try-acquire the hardware mutex (1 = acquired, 0 = busy).
    /// Write: release it.
    pub const MMIO_MUTEX: u32 = 0x0C;
    /// Read: barrier generation. Write: arrive at the barrier.
    pub const MMIO_BARRIER: u32 = 0x10;
    /// Read: low 32 bits of the global cycle counter.
    pub const MMIO_CYCLE: u32 = 0x14;
    /// Write: halt this core.
    pub const MMIO_HALT: u32 = 0x18;
    /// Write: append a word to the host-visible spike log.
    pub const MMIO_SPIKE_LOG: u32 = 0x1C;
    /// Read: next value from the device PRNG (xorshift32).
    pub const MMIO_RAND: u32 = 0x20;
    /// Write 1: reset+start the region-of-interest counters;
    /// write 0: stop them.
    pub const MMIO_ROI: u32 = 0x24;
    /// Write: record a host-visible "progress" word (debug aid).
    pub const MMIO_PROGRESS: u32 = 0x28;
    /// Stimulus injection port. Write: select the tick to query.
    /// Read: next externally injected neuron index for the selected tick
    /// on this core, or `0xFFFF_FFFF` once the tick's events are drained.
    pub const MMIO_STIM: u32 = 0x2C;

    /// Which region an address belongs to.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Region {
        /// Off-chip SDRAM (cached).
        Sdram,
        /// On-chip scratchpad (uncached, 1 cycle).
        Scratch,
        /// Memory-mapped devices.
        Mmio,
        /// Unmapped.
        Unmapped,
    }

    /// Classify an address.
    #[inline]
    pub fn region_of(addr: u32, sdram_size: u32, scratch_size: u32) -> Region {
        if addr < sdram_size {
            Region::Sdram
        } else if (SCRATCH_BASE..SCRATCH_BASE + scratch_size).contains(&addr) {
            Region::Scratch
        } else if (MMIO_BASE..MMIO_BASE + MMIO_SIZE).contains(&addr) {
            Region::Mmio
        } else {
            Region::Unmapped
        }
    }
}

/// Width-dispatched functional read from an already-classified region's
/// backing bytes (zero-extended; the cpu sign-extends `lb`/`lh` itself).
#[inline]
pub(crate) fn read_slice(buf: &[u8], off: usize, op: LoadOp) -> Option<u32> {
    match op {
        LoadOp::Lw => buf
            .get(off..off + 4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap())),
        LoadOp::Lh | LoadOp::Lhu => buf
            .get(off..off + 2)
            .map(|b| u32::from(u16::from_le_bytes(b.try_into().unwrap()))),
        LoadOp::Lb | LoadOp::Lbu => buf.get(off).map(|&b| u32::from(b)),
    }
}

/// Width-dispatched functional write into an already-classified region's
/// backing bytes; `false` when the span falls outside the region.
#[inline]
pub(crate) fn write_slice(buf: &mut [u8], off: usize, value: u32, op: StoreOp) -> bool {
    match op {
        StoreOp::Sw => buf.get_mut(off..off + 4).map(|b| {
            b.copy_from_slice(&value.to_le_bytes());
        }),
        StoreOp::Sh => buf.get_mut(off..off + 2).map(|b| {
            b.copy_from_slice(&(value as u16).to_le_bytes());
        }),
        StoreOp::Sb => buf.get_mut(off).map(|b| {
            *b = value as u8;
        }),
    }
    .is_some()
}

/// Byte-addressable backing storage for SDRAM and the scratchpad.
#[derive(Debug, Clone)]
pub struct MainMemory {
    sdram: Vec<u8>,
    scratch: Vec<u8>,
}

impl MainMemory {
    /// Allocate with the given region sizes (both rounded up to 4 bytes).
    pub fn new(sdram_size: u32, scratch_size: u32) -> Self {
        MainMemory {
            sdram: vec![0; (sdram_size as usize + 3) & !3],
            scratch: vec![0; (scratch_size as usize + 3) & !3],
        }
    }

    /// SDRAM size in bytes.
    pub fn sdram_size(&self) -> u32 {
        self.sdram.len() as u32
    }

    /// Scratchpad size in bytes.
    pub fn scratch_size(&self) -> u32 {
        self.scratch.len() as u32
    }

    /// Raw SDRAM bytes — the cpu's predecoded fast path indexes these
    /// directly after it has classified the address once.
    #[inline]
    pub fn sdram_bytes(&self) -> &[u8] {
        &self.sdram
    }

    /// Raw SDRAM bytes, mutable.
    #[inline]
    pub fn sdram_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.sdram
    }

    /// Raw scratchpad bytes (offset-addressed from `SCRATCH_BASE`).
    #[inline]
    pub fn scratch_bytes(&self) -> &[u8] {
        &self.scratch
    }

    /// Raw scratchpad bytes, mutable.
    #[inline]
    pub fn scratch_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.scratch
    }

    #[inline]
    fn backing(&self, addr: u32) -> Option<(&Vec<u8>, usize)> {
        if (addr as usize) < self.sdram.len() {
            Some((&self.sdram, addr as usize))
        } else if addr >= layout::SCRATCH_BASE {
            let off = (addr - layout::SCRATCH_BASE) as usize;
            (off < self.scratch.len()).then_some((&self.scratch, off))
        } else {
            None
        }
    }

    #[inline]
    fn backing_mut(&mut self, addr: u32) -> Option<(&mut Vec<u8>, usize)> {
        if (addr as usize) < self.sdram.len() {
            Some((&mut self.sdram, addr as usize))
        } else if addr >= layout::SCRATCH_BASE {
            let off = (addr - layout::SCRATCH_BASE) as usize;
            (off < self.scratch.len()).then_some((&mut self.scratch, off))
        } else {
            None
        }
    }

    /// Read an aligned 32-bit word; `None` if unmapped.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> Option<u32> {
        let (mem, off) = self.backing(addr)?;
        let bytes = mem.get(off..off + 4)?;
        Some(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Read a 16-bit half-word.
    #[inline]
    pub fn read_u16(&self, addr: u32) -> Option<u16> {
        let (mem, off) = self.backing(addr)?;
        let bytes = mem.get(off..off + 2)?;
        Some(u16::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Read a byte.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> Option<u8> {
        let (mem, off) = self.backing(addr)?;
        mem.get(off).copied()
    }

    /// Write an aligned 32-bit word; `false` if unmapped.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) -> bool {
        let Some((mem, off)) = self.backing_mut(addr) else {
            return false;
        };
        let Some(slot) = mem.get_mut(off..off + 4) else {
            return false;
        };
        slot.copy_from_slice(&value.to_le_bytes());
        true
    }

    /// Write a 16-bit half-word.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, value: u16) -> bool {
        let Some((mem, off)) = self.backing_mut(addr) else {
            return false;
        };
        let Some(slot) = mem.get_mut(off..off + 2) else {
            return false;
        };
        slot.copy_from_slice(&value.to_le_bytes());
        true
    }

    /// Write a byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) -> bool {
        let Some((mem, off)) = self.backing_mut(addr) else {
            return false;
        };
        if off >= mem.len() {
            return false;
        }
        mem[off] = value;
        true
    }

    /// The `len` bytes from `addr` on, when they lie within one region
    /// (SDRAM or the scratchpad); `None` otherwise. Empty spans are
    /// always `Some`.
    pub fn span(&self, addr: u32, len: usize) -> Option<&[u8]> {
        if len == 0 {
            return Some(&[]);
        }
        let (mem, off) = self.backing(addr)?;
        mem.get(off..off.checked_add(len)?)
    }

    /// [`MainMemory::span`], mutable: where bulk table uploads serialise
    /// straight into guest memory.
    pub fn span_mut(&mut self, addr: u32, len: usize) -> Option<&mut [u8]> {
        if len == 0 {
            return Some(&mut []);
        }
        let (mem, off) = self.backing_mut(addr)?;
        mem.get_mut(off..off.checked_add(len)?)
    }

    /// Copy a byte slice into memory (used by the program loader and bulk
    /// table uploads). One `memcpy` when the span lies within a single
    /// region; `false` otherwise.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> bool {
        let Some(slot) = self.span_mut(addr, bytes.len()) else {
            return false;
        };
        slot.copy_from_slice(bytes);
        true
    }

    /// Read `len` bytes starting at `addr` (host-side result readback);
    /// `None` unless they lie within one region.
    pub fn read_bytes(&self, addr: u32, len: usize) -> Option<Vec<u8>> {
        self.span(addr, len).map(<[u8]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::layout::*;
    use super::*;

    #[test]
    fn region_classification() {
        assert_eq!(
            region_of(0, SDRAM_DEFAULT_SIZE, SCRATCH_DEFAULT_SIZE),
            Region::Sdram
        );
        assert_eq!(
            region_of(
                SDRAM_DEFAULT_SIZE - 4,
                SDRAM_DEFAULT_SIZE,
                SCRATCH_DEFAULT_SIZE
            ),
            Region::Sdram
        );
        assert_eq!(
            region_of(SDRAM_DEFAULT_SIZE, SDRAM_DEFAULT_SIZE, SCRATCH_DEFAULT_SIZE),
            Region::Unmapped
        );
        assert_eq!(
            region_of(SCRATCH_BASE, SDRAM_DEFAULT_SIZE, SCRATCH_DEFAULT_SIZE),
            Region::Scratch
        );
        assert_eq!(
            region_of(
                MMIO_BASE + MMIO_ROI,
                SDRAM_DEFAULT_SIZE,
                SCRATCH_DEFAULT_SIZE
            ),
            Region::Mmio
        );
        assert_eq!(
            region_of(0x8000_0000, SDRAM_DEFAULT_SIZE, SCRATCH_DEFAULT_SIZE),
            Region::Unmapped
        );
    }

    #[test]
    fn word_rw_little_endian() {
        let mut m = MainMemory::new(4096, 4096);
        assert!(m.write_u32(0x10, 0x11223344));
        assert_eq!(m.read_u8(0x10), Some(0x44));
        assert_eq!(m.read_u8(0x13), Some(0x11));
        assert_eq!(m.read_u16(0x10), Some(0x3344));
        assert_eq!(m.read_u32(0x10), Some(0x11223344));
    }

    #[test]
    fn scratch_is_separate() {
        let mut m = MainMemory::new(4096, 4096);
        m.write_u32(0x20, 1);
        m.write_u32(SCRATCH_BASE + 0x20, 2);
        assert_eq!(m.read_u32(0x20), Some(1));
        assert_eq!(m.read_u32(SCRATCH_BASE + 0x20), Some(2));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = MainMemory::new(4096, 4096);
        assert_eq!(m.read_u32(4096), None);
        assert_eq!(m.read_u32(4094), None); // straddles the end
        assert!(!m.write_u32(SCRATCH_BASE + 4096, 0));
        assert_eq!(m.read_u32(0x2000_0000), None);
    }

    #[test]
    fn bulk_copy_roundtrip() {
        let mut m = MainMemory::new(4096, 4096);
        let data: Vec<u8> = (0..=255).collect();
        assert!(m.write_bytes(100, &data));
        assert_eq!(m.read_bytes(100, 256).unwrap(), data);
        assert!(m.write_bytes(SCRATCH_BASE + 4096 - 256, &data));
        assert_eq!(m.span(SCRATCH_BASE + 4096 - 256, 256), Some(&data[..]));
    }

    #[test]
    fn spans_stay_inside_one_region() {
        let mut m = MainMemory::new(4096, 4096);
        assert_eq!(m.span(4096 - 4, 4).map(<[u8]>::len), Some(4));
        assert_eq!(m.span(4096 - 4, 5), None); // runs off the end of SDRAM
        assert_eq!(m.span(4096, 1), None);
        assert_eq!(m.span(SCRATCH_BASE + 4095, 2), None);
        assert_eq!(m.span(MMIO_BASE, 4), None);
        assert_eq!(m.span(SCRATCH_BASE + 1, usize::MAX), None);
        assert_eq!(m.span(0x2000_0000, 0), Some(&[][..]));
        assert!(m.span_mut(4096 - 2, 4).is_none());
        assert!(!m.write_bytes(4096 - 2, &[1, 2, 3, 4]));
        assert_eq!(m.read_bytes(4096 - 2, 4), None);
        assert_eq!(
            m.read_u16(4096 - 2),
            Some(0),
            "a refused write stores nothing"
        );
    }
}
