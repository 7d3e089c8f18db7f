//! Memory-mapped platform devices shared by all cores.
//!
//! The register block mirrors what the paper's Avalon system provides:
//! a JTAG-UART-style console, an Altera-mutex-style hardware mutex, a
//! barrier peripheral, a spike-log FIFO the workloads use to export raster
//! data, a seeded xorshift32 RNG (stand-in for the host-supplied thalamic
//! noise tables), and counter (ROI) control.

use crate::mem::layout;

/// What an injected fault does when it fires (see [`FaultPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Raise a guest trap on the victim core
    /// ([`TrapCause::InjectedFault`](crate::cpu::TrapCause::InjectedFault)).
    GuestTrap,
    /// Stall the victim core's host thread for this many milliseconds —
    /// the guest-visible state is untouched, so only a wall-clock
    /// watchdog can notice.
    StallMs(u64),
    /// XOR this mask into the next spike-log word the victim core writes:
    /// a silent corruption of non-architectural output that only
    /// downstream verification (raster hashing) can catch.
    CorruptSpike(u32),
    /// Panic on the host thread driving the victim core — exercises
    /// `catch_unwind` supervision in the harness above the simulator.
    HostPanic,
}

/// One scheduled fault: fires on `core` at the first instruction executed
/// with at least `at_instret` instructions already retired, then disarms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Victim hart id.
    pub core: u32,
    /// Retired-instruction trigger point (0 fires on the first
    /// instruction). Instret is schedule-invariant per core, so a plan
    /// replays identically under every scheduling mode.
    pub at_instret: u64,
    /// What happens at the trigger point.
    pub kind: FaultKind,
}

/// A deterministic, replayable fault schedule carried on
/// [`SystemConfig`](crate::system::SystemConfig). The default (empty)
/// plan injects nothing and leaves every run bit-identical to an
/// unplanned one — the fault-injection property suite pins this.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled faults. At most one fault is armed per core (the
    /// first spec listed for that core wins).
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan with no faults (same as `Default`).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Builder: add one scheduled fault.
    pub fn with(mut self, core: u32, at_instret: u64, kind: FaultKind) -> Self {
        self.faults.push(FaultSpec {
            core,
            at_instret,
            kind,
        });
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault armed for `core`, if any (first spec wins).
    pub(crate) fn for_core(&self, core: u32) -> Option<FaultSpec> {
        self.faults.iter().copied().find(|f| f.core == core)
    }
}

/// One externally injected input spike: at simulation tick `tick`, neuron
/// `neuron` (a guest-global index owned by `core`) receives one unit of
/// stimulus current. The guest discovers it by writing the tick to
/// [`layout::MMIO_STIM`] and reading events back until the drain sentinel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StimEvent {
    /// Simulation tick the event fires on.
    pub tick: u32,
    /// Hart that owns the target neuron (only this core sees the event).
    pub core: u32,
    /// Target neuron index (guest-global).
    pub neuron: u32,
}

/// A deterministic, replayable stimulus schedule carried on
/// [`SystemConfig`](crate::system::SystemConfig) — the streaming-input
/// analogue of [`FaultPlan`]. The default (empty) plan injects nothing and
/// leaves every run bit-identical to an unplanned one. Events are
/// per-core state on the device, so delivery is schedule-invariant: every
/// scheduling mode drains the same events in the same order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StimPlan {
    /// The scheduled events, in any order (the device sorts per core).
    pub events: Vec<StimEvent>,
}

impl StimPlan {
    /// A plan with no events (same as `Default`).
    pub fn none() -> Self {
        StimPlan::default()
    }

    /// Builder: add one scheduled event.
    pub fn with(mut self, tick: u32, core: u32, neuron: u32) -> Self {
        self.events.push(StimEvent { tick, core, neuron });
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

/// Side effects an MMIO write asks the core to apply to itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmioEffect {
    /// Nothing beyond the device state change.
    None,
    /// Halt the writing core.
    Halt,
    /// Reset and start this core's region-of-interest counters.
    RoiStart,
    /// Stop this core's region-of-interest counters.
    RoiStop,
    /// The core arrived at the barrier but the round is still incomplete.
    /// The exact scheduler ignores this (the guest's spin loop is simulated
    /// as-is); the relaxed scheduler parks the core until release.
    BarrierWait,
}

/// `true` when an MMIO access at `offset` is **shared-interactive**: its
/// result or effect depends on other cores' device traffic (mutex
/// try-acquire/release, barrier arrivals, the one shared RNG stream) or
/// on device-side state only the real block holds (the stimulus port).
/// The host-parallel scheduler must execute these in hart order against
/// the real device block; everything else is either pure per-core (core
/// id, core count, own cycle counter, halt, ROI), append-only (console,
/// spike log, progress) or a barrier-generation read, and safe to
/// answer/buffer core-locally. A generation read is answered with the
/// generation current when the reading core's segment was posted: under
/// relaxed scheduling no round completes before every core has arrived
/// in it, so a core that has not arrived yet always reads that value (see
/// [`crate::parallel`]). Keep this in sync with [`SharedDevices::read`]/
/// [`SharedDevices::write`] when adding registers.
#[inline]
pub(crate) fn is_interactive(offset: u32, write: bool) -> bool {
    matches!(offset, layout::MMIO_MUTEX | layout::MMIO_STIM)
        || (write && offset == layout::MMIO_BARRIER)
        || (!write && offset == layout::MMIO_RAND)
}

/// Shared device state.
#[derive(Debug, Clone)]
pub struct SharedDevices {
    n_cores: u32,
    /// Console output bytes.
    pub console: Vec<u8>,
    mutex_owner: Option<u32>,
    barrier_count: u32,
    barrier_generation: u32,
    /// Words written to the spike-log FIFO.
    pub spike_log: Vec<u32>,
    /// Progress/debug words.
    pub progress: Vec<u32>,
    rng_state: u32,
    /// Failed mutex acquisition attempts (contention diagnostics).
    pub mutex_contention: u64,
    /// Per-core stimulus event lists, sorted by (tick, neuron).
    stim_events: Vec<Vec<(u32, u32)>>,
    /// Per-core drain cursor into `stim_events`.
    stim_cursor: Vec<usize>,
    /// Per-core tick selected by the last [`layout::MMIO_STIM`] write.
    stim_tick: Vec<u32>,
}

impl SharedDevices {
    /// Create devices for an `n_cores` system with the given RNG seed.
    pub fn new(n_cores: u32, rng_seed: u32) -> Self {
        SharedDevices {
            n_cores,
            console: Vec::new(),
            mutex_owner: None,
            barrier_count: 0,
            barrier_generation: 0,
            spike_log: Vec::new(),
            progress: Vec::new(),
            rng_state: if rng_seed == 0 { 0x1234_5678 } else { rng_seed },
            mutex_contention: 0,
            stim_events: vec![Vec::new(); n_cores as usize],
            stim_cursor: vec![0; n_cores as usize],
            stim_tick: vec![0; n_cores as usize],
        }
    }

    /// Install a stimulus schedule: events are bucketed per owning core
    /// and sorted by (tick, neuron), so the guest drains them in a
    /// canonical order regardless of how the plan was built. Events for
    /// cores outside the system are dropped.
    pub fn set_stim_plan(&mut self, plan: &StimPlan) {
        for list in &mut self.stim_events {
            list.clear();
        }
        for ev in &plan.events {
            if ev.core < self.n_cores {
                self.stim_events[ev.core as usize].push((ev.tick, ev.neuron));
            }
        }
        for list in &mut self.stim_events {
            list.sort_unstable();
        }
        self.stim_cursor.fill(0);
        self.stim_tick.fill(0);
    }

    /// Handle a 32-bit MMIO read from `core_id` at global time `now`.
    pub fn read(&mut self, core_id: u32, offset: u32, now: u64) -> u32 {
        match offset {
            layout::MMIO_COREID => core_id,
            layout::MMIO_NCORES => self.n_cores,
            layout::MMIO_MUTEX => match self.mutex_owner {
                None => {
                    self.mutex_owner = Some(core_id);
                    1
                }
                Some(owner) if owner == core_id => 1, // re-entrant read
                Some(_) => {
                    self.mutex_contention += 1;
                    0
                }
            },
            layout::MMIO_BARRIER => self.barrier_generation,
            layout::MMIO_CYCLE => now as u32,
            layout::MMIO_RAND => {
                // xorshift32
                let mut x = self.rng_state;
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                self.rng_state = x;
                x
            }
            layout::MMIO_STIM => {
                let c = core_id as usize;
                let list = &self.stim_events[c];
                match list.get(self.stim_cursor[c]) {
                    Some(&(tick, neuron)) if tick == self.stim_tick[c] => {
                        self.stim_cursor[c] += 1;
                        neuron
                    }
                    _ => u32::MAX, // drained for the selected tick
                }
            }
            _ => 0,
        }
    }

    /// Handle a 32-bit MMIO write; returns the effect the core must apply.
    pub fn write(&mut self, core_id: u32, offset: u32, value: u32) -> MmioEffect {
        match offset {
            layout::MMIO_CONSOLE => {
                self.console.push(value as u8);
                MmioEffect::None
            }
            layout::MMIO_MUTEX => {
                if self.mutex_owner == Some(core_id) {
                    self.mutex_owner = None;
                }
                MmioEffect::None
            }
            layout::MMIO_BARRIER => {
                self.barrier_count += 1;
                if self.barrier_count == self.n_cores {
                    self.barrier_count = 0;
                    self.barrier_generation = self.barrier_generation.wrapping_add(1);
                    MmioEffect::None
                } else {
                    MmioEffect::BarrierWait
                }
            }
            layout::MMIO_HALT => MmioEffect::Halt,
            layout::MMIO_SPIKE_LOG => {
                self.spike_log.push(value);
                MmioEffect::None
            }
            layout::MMIO_ROI => {
                if value != 0 {
                    MmioEffect::RoiStart
                } else {
                    MmioEffect::RoiStop
                }
            }
            layout::MMIO_PROGRESS => {
                self.progress.push(value);
                MmioEffect::None
            }
            layout::MMIO_STIM => {
                // Select the tick to drain. Guests query monotonically
                // increasing ticks, but a binary search keeps re-selection
                // (e.g. a restarted run) well-defined too.
                let c = core_id as usize;
                self.stim_tick[c] = value;
                self.stim_cursor[c] = self.stim_events[c].partition_point(|&(t, _)| t < value);
                MmioEffect::None
            }
            _ => MmioEffect::None,
        }
    }

    /// Console contents as a lossy UTF-8 string.
    pub fn console_string(&self) -> String {
        String::from_utf8_lossy(&self.console).into_owned()
    }

    /// Current mutex holder, if any (test/diagnostic hook).
    pub fn mutex_owner(&self) -> Option<u32> {
        self.mutex_owner
    }

    /// Current barrier generation (test/diagnostic hook).
    pub fn barrier_generation(&self) -> u32 {
        self.barrier_generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::layout::*;

    #[test]
    fn console_collects_bytes() {
        let mut d = SharedDevices::new(1, 1);
        for b in b"hi!" {
            d.write(0, MMIO_CONSOLE, *b as u32);
        }
        assert_eq!(d.console_string(), "hi!");
    }

    #[test]
    fn mutex_exclusive_and_reentrant() {
        let mut d = SharedDevices::new(2, 1);
        assert_eq!(d.read(0, MMIO_MUTEX, 0), 1, "core 0 acquires");
        assert_eq!(d.read(1, MMIO_MUTEX, 0), 0, "core 1 blocked");
        assert_eq!(d.read(0, MMIO_MUTEX, 0), 1, "re-entrant for owner");
        d.write(1, MMIO_MUTEX, 0); // non-owner release is ignored
        assert_eq!(d.read(1, MMIO_MUTEX, 0), 0);
        d.write(0, MMIO_MUTEX, 0); // owner releases
        assert_eq!(d.read(1, MMIO_MUTEX, 0), 1, "core 1 acquires after release");
        assert_eq!(d.mutex_contention, 2);
    }

    #[test]
    fn barrier_releases_when_all_arrive() {
        let mut d = SharedDevices::new(3, 1);
        let gen = d.read(0, MMIO_BARRIER, 0);
        d.write(0, MMIO_BARRIER, 0);
        d.write(1, MMIO_BARRIER, 0);
        assert_eq!(d.read(2, MMIO_BARRIER, 0), gen, "not yet released");
        d.write(2, MMIO_BARRIER, 0);
        assert_eq!(d.read(0, MMIO_BARRIER, 0), gen + 1, "released");
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = SharedDevices::new(1, 42);
        let mut b = SharedDevices::new(1, 42);
        let va: Vec<u32> = (0..10).map(|_| a.read(0, MMIO_RAND, 0)).collect();
        let vb: Vec<u32> = (0..10).map(|_| b.read(0, MMIO_RAND, 0)).collect();
        assert_eq!(va, vb);
        let mut c = SharedDevices::new(1, 43);
        let vc: Vec<u32> = (0..10).map(|_| c.read(0, MMIO_RAND, 0)).collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn effects() {
        let mut d = SharedDevices::new(1, 1);
        assert_eq!(d.write(0, MMIO_HALT, 1), MmioEffect::Halt);
        assert_eq!(d.write(0, MMIO_ROI, 1), MmioEffect::RoiStart);
        assert_eq!(d.write(0, MMIO_ROI, 0), MmioEffect::RoiStop);
        assert_eq!(d.write(0, MMIO_SPIKE_LOG, 0xABCD), MmioEffect::None);
        assert_eq!(d.spike_log, vec![0xABCD]);
    }

    #[test]
    fn barrier_arrival_reports_incomplete_rounds() {
        let mut d = SharedDevices::new(2, 1);
        assert_eq!(d.write(0, MMIO_BARRIER, 0), MmioEffect::BarrierWait);
        assert_eq!(d.write(1, MMIO_BARRIER, 0), MmioEffect::None);
        // A single-core barrier releases on every arrival.
        let mut solo = SharedDevices::new(1, 1);
        assert_eq!(solo.write(0, MMIO_BARRIER, 0), MmioEffect::None);
    }

    #[test]
    fn interactive_classification_covers_the_shared_registers() {
        // Reads whose value depends on other cores' traffic, plus the
        // stimulus port (stateful on the real device block only — the
        // buffered per-core shim cannot answer it):
        for off in [MMIO_MUTEX, MMIO_RAND, MMIO_STIM] {
            assert!(is_interactive(off, false), "read {off:#x}");
        }
        // Writes with cross-core effects or device-side state:
        for off in [MMIO_MUTEX, MMIO_BARRIER, MMIO_STIM] {
            assert!(is_interactive(off, true), "write {off:#x}");
        }
        // Everything else is core-local or append-only.
        for off in [
            MMIO_CONSOLE,
            MMIO_COREID,
            MMIO_NCORES,
            MMIO_CYCLE,
            MMIO_HALT,
            MMIO_SPIKE_LOG,
            MMIO_ROI,
            MMIO_PROGRESS,
        ] {
            assert!(!is_interactive(off, true), "write {off:#x}");
        }
        // A barrier-generation read is answered core-locally: it returns
        // the generation current when the reading segment was posted.
        for off in [
            MMIO_CONSOLE,
            MMIO_COREID,
            MMIO_NCORES,
            MMIO_CYCLE,
            MMIO_BARRIER,
        ] {
            assert!(!is_interactive(off, false), "read {off:#x}");
        }
    }

    #[test]
    fn stim_port_drains_per_core_events_in_order() {
        let mut d = SharedDevices::new(2, 1);
        // Unsorted plan, events for both cores plus one out-of-range core.
        let plan = StimPlan::none()
            .with(5, 0, 30)
            .with(3, 0, 11)
            .with(3, 0, 7)
            .with(3, 1, 99)
            .with(3, 7, 1);
        d.set_stim_plan(&plan);
        // No write yet: tick 0 selected, nothing scheduled there.
        assert_eq!(d.read(0, MMIO_STIM, 0), u32::MAX);
        // Core 0, tick 3: two events, sorted by neuron, then the sentinel.
        d.write(0, MMIO_STIM, 3);
        assert_eq!(d.read(0, MMIO_STIM, 0), 7);
        assert_eq!(d.read(0, MMIO_STIM, 0), 11);
        assert_eq!(d.read(0, MMIO_STIM, 0), u32::MAX);
        assert_eq!(d.read(0, MMIO_STIM, 0), u32::MAX, "stays drained");
        // Core 1 has its own cursor and only its own events.
        d.write(1, MMIO_STIM, 3);
        assert_eq!(d.read(1, MMIO_STIM, 0), 99);
        assert_eq!(d.read(1, MMIO_STIM, 0), u32::MAX);
        // Skipping a tick with no events yields the sentinel immediately.
        d.write(0, MMIO_STIM, 4);
        assert_eq!(d.read(0, MMIO_STIM, 0), u32::MAX);
        d.write(0, MMIO_STIM, 5);
        assert_eq!(d.read(0, MMIO_STIM, 0), 30);
        assert_eq!(d.read(0, MMIO_STIM, 0), u32::MAX);
    }

    #[test]
    fn empty_stim_plan_is_inert() {
        let mut d = SharedDevices::new(1, 1);
        assert_eq!(d.read(0, MMIO_STIM, 0), u32::MAX);
        d.write(0, MMIO_STIM, 17);
        assert_eq!(d.read(0, MMIO_STIM, 0), u32::MAX);
    }

    #[test]
    fn ids_and_cycle() {
        let mut d = SharedDevices::new(4, 1);
        assert_eq!(d.read(2, MMIO_COREID, 0), 2);
        assert_eq!(d.read(0, MMIO_NCORES, 0), 4);
        assert_eq!(d.read(0, MMIO_CYCLE, 12345), 12345);
    }
}
