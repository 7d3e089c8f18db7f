//! Build-once run templates: cached, copy-on-write guest builds.
//!
//! Every cold run pays the same construction bill — generate the engine
//! assembly, assemble it, allocate a [`System`], upload the weight/noise
//! tables, predecode the code — before the first guest cycle executes.
//! For a battery, a service worker pool or a wide seed sweep that bill is
//! paid per *run* even though it only depends on the (scenario, shape)
//! pair. This module pays it once:
//!
//! * [`RunTemplate`] is an immutable snapshot of a fully built run —
//!   loaded memory, predecoded micro-op stream, entry point, and the
//!   [`PatchMap`]s naming which memory spans hold the program versus the
//!   guest image. Templates are built through [`lookup`] and cached in
//!   a keyed, capacity-bounded, process-wide cache (LRU eviction).
//! * [`RunTemplate::instantiate`] stamps out a [`RunInstance`]: a
//!   [`Workload`] whose runs start from bulk copies of the snapshot
//!   spans instead of a fresh build. The template itself is **never
//!   mutated** (copy-on-write: each run materialises its own memory), so
//!   any number of instances can run concurrently.
//!
//! ## Cache keying and seeds
//!
//! The cache key is the scenario name plus the merged parameters *with
//! the seed erased* — the seed changes table contents, never the shape,
//! the program or the layout. Instantiating at the template's own build
//! seed copies nothing but the configuration: the instance reads the
//! template's prototype workload, and its runs replay the recorded image
//! spans (pure bulk copies — the fast path a repeat-seed battery or
//! service hits). Instantiating at a different seed rebuilds the
//! host-side image (cheap: no assembly, no predecode, no fresh `System`
//! plumbing), which the instance owns, and its runs patch exactly the
//! spans in the template's [`PatchMap`] over a fresh memory.
//!
//! ## One construction path
//!
//! The CLI, the battery runner and the service get every workload from
//! [`instance`]. The cold path, [`Scenario::build`] followed by
//! [`Workload::run_cold`], stays the from-scratch reference the
//! differential suites compare instances against.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use izhi_sim::{MainMemory, SchedMode, SimError, System};

use crate::engine::{
    assert_run_shape, prepare_run, run_prepared_system, EngineConfig, GuestImage, PatchMap,
    WorkloadResult,
};
use crate::scenario::{Scenario, ScenarioParams, Workload};

/// An immutable, fully built run snapshot for one (scenario, shape).
///
/// Holds everything `run_workload` builds before the first cycle, plus
/// the prototype workload it was built from (for re-seeding and
/// verification). See the [module docs](self) for the contract.
pub struct RunTemplate {
    scenario: &'static Scenario,
    /// Fully merged build parameters (including the build seed).
    params: ScenarioParams,
    /// The cold-built prototype. Never run; every instance at the build
    /// seed reads it in place.
    workload: Box<dyn Workload>,
    /// Loaded, never-executed guest memory (program + image tables).
    mem: MainMemory,
    /// Predecoded micro-op stream for the program segments.
    code: izhi_sim::CodeTable,
    entry: u32,
    /// Spans of `mem` holding the program segments (seed-invariant).
    prog_spans: PatchMap,
    /// Spans of `mem` holding the image tables (seed-dependent).
    patches: PatchMap,
}

impl core::fmt::Debug for RunTemplate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RunTemplate")
            .field("scenario", &self.scenario.name)
            .field("params", &self.params)
            .field("entry", &self.entry)
            .field("prog_bytes", &self.prog_spans.bytes())
            .field("image_bytes", &self.patches.bytes())
            .finish()
    }
}

impl RunTemplate {
    /// Build a template from scratch (one cold construction).
    fn build(scenario: &'static Scenario, params: ScenarioParams) -> RunTemplate {
        let workload = scenario.build(&params);
        let prep = prepare_run(workload.cfg(), workload.image());
        RunTemplate {
            scenario,
            params,
            workload,
            mem: prep.mem,
            code: prep.code,
            entry: prep.entry,
            prog_spans: prep.prog_spans,
            patches: prep.image_spans,
        }
    }

    /// The scenario this template belongs to.
    pub fn scenario(&self) -> &'static Scenario {
        self.scenario
    }

    /// The fully merged parameters the template was built at (the seed
    /// field is the *build* seed; instances may use another).
    pub fn params(&self) -> ScenarioParams {
        self.params
    }

    /// The recorded image patch map (the seed-dependent spans).
    pub fn patches(&self) -> &PatchMap {
        &self.patches
    }

    /// Stamp out a runnable instance at `seed` under `sched` (the timing
    /// model rides inside [`SchedMode`]'s relaxed variants).
    ///
    /// At the template's own build seed this is pure reuse: runs replay
    /// the recorded spans with bulk copies. At any other seed the
    /// host-side image is rebuilt (the only seed-dependent work) and its
    /// tables are patched over the snapshot's program spans; assembly,
    /// predecode and layout are still reused. Either way the template is
    /// untouched — instances never alias writable state.
    pub fn instantiate(self: &Arc<Self>, seed: u32, sched: SchedMode) -> RunInstance {
        if self.params.seed == Some(seed) {
            return self.instantiate_as_built(sched);
        }
        let reseeded = ScenarioParams {
            seed: Some(seed),
            ..self.params
        };
        let workload = self.scenario.build(&reseeded);
        assert!(
            workload.cfg().same_build(self.workload.cfg()),
            "{}: re-seeding changed the engine shape — the scenario's \
             shape must not depend on the seed",
            self.scenario.name
        );
        let mut cfg = workload.cfg().clone();
        cfg.system.sched = sched;
        RunInstance {
            template: Arc::clone(self),
            reseeded: Some(workload),
            cfg,
        }
    }

    /// Stamp out an instance at the template's own build parameters
    /// (pure snapshot reuse, no re-seeding) — what a caller without an
    /// explicit seed wants. The instance reads the template's prototype;
    /// it copies only its configuration.
    pub fn instantiate_as_built(self: &Arc<Self>, sched: SchedMode) -> RunInstance {
        let mut cfg = self.workload.cfg().clone();
        cfg.system.sched = sched;
        RunInstance {
            template: Arc::clone(self),
            reseeded: None,
            cfg,
        }
    }
}

/// A runnable instantiation of a [`RunTemplate`]: a [`Workload`] whose
/// [`Workload::run`]/[`Workload::run_budgeted`] start from the snapshot
/// (each attempt materialises its own fresh memory, so retries and
/// concurrent instances never share writable state), while
/// [`Workload::run_cold`] still builds from scratch for differential
/// comparison.
pub struct RunInstance {
    template: Arc<RunTemplate>,
    /// The host-side rebuild at this instance's seed when it differs
    /// from the template's; `None` reads the template's prototype. Runs
    /// patch a rebuilt image in and replay the snapshot's otherwise.
    reseeded: Option<Box<dyn Workload>>,
    /// This instance's configuration (sched/faults/wall-limit are
    /// per-instance; the shape must stay the template's).
    cfg: EngineConfig,
}

impl core::fmt::Debug for RunInstance {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RunInstance")
            .field("template", &self.template)
            .field("reseeded", &self.reseeded.is_some())
            .finish()
    }
}

impl RunInstance {
    /// The template this instance was stamped from.
    pub fn template(&self) -> &Arc<RunTemplate> {
        &self.template
    }

    /// The workload at this instance's seed.
    fn workload(&self) -> &dyn Workload {
        self.reseeded.as_deref().unwrap_or(&*self.template.workload)
    }
}

impl Workload for RunInstance {
    fn cfg(&self) -> &EngineConfig {
        &self.cfg
    }

    fn cfg_mut(&mut self) -> &mut EngineConfig {
        &mut self.cfg
    }

    fn image(&self) -> &GuestImage {
        self.workload().image()
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(RunInstance {
            template: Arc::clone(&self.template),
            reseeded: self.reseeded.as_ref().map(|w| w.clone_box()),
            cfg: self.cfg.clone(),
        })
    }

    fn max_cycles(&self) -> u64 {
        self.workload().max_cycles()
    }

    fn run_budgeted(&self, max_cycles: u64) -> Result<WorkloadResult, SimError> {
        let t = &self.template;
        // The snapshot is only valid for the shape and program it was
        // built with; the per-instance knobs (sched, faults, wall limit,
        // clock) live in cfg.system and are applied below.
        assert!(
            self.cfg.same_build(t.workload.cfg()),
            "RunInstance shape diverged from its template — rebuild \
             (or use run_cold()) after mutating shape fields"
        );
        assert_run_shape(&self.cfg, self.image());
        let mut system_cfg = self.cfg.system.clone();
        system_cfg.n_cores = self.cfg.n_cores;
        // Copy-on-write materialisation: a fresh memory, the program
        // spans replayed from the snapshot, and the image either
        // replayed (same seed) or re-patched from the rebuilt tables.
        let mut mem = MainMemory::new(system_cfg.sdram_size, system_cfg.scratch_size);
        t.prog_spans.replay(&t.mem, &mut mem);
        match &self.reseeded {
            Some(w) => w
                .image()
                .load_into_mem(&mut mem, &self.cfg, &mut PatchMap::default()),
            None => t.patches.replay(&t.mem, &mut mem),
        }
        let mut sys = System::from_snapshot(system_cfg, mem, t.code.clone(), t.entry);
        run_prepared_system(&mut sys, &self.cfg, max_cycles)
    }

    fn verify(&self, res: &WorkloadResult) -> Result<(), String> {
        self.workload().verify(res)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

// ---------------------------------------------------------------------------
// The process-wide template cache.
// ---------------------------------------------------------------------------

/// Default capacity of the process-wide cache (templates, not bytes):
/// enough for every registered scenario's quick shape plus headroom for
/// a few full-scale ones.
pub const DEFAULT_CACHE_CAPACITY: usize = 16;

#[derive(PartialEq, Eq, Hash, Clone)]
struct CacheKey {
    scenario: &'static str,
    /// Merged parameters with the seed erased (seed-keyed entries would
    /// defeat the point of `instantiate(seed, ..)`).
    shape: ScenarioParams,
}

/// Hit/miss counters and occupancy of the process-wide cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a template.
    pub misses: u64,
    /// Templates currently resident.
    pub len: usize,
}

struct CacheInner {
    map: HashMap<CacheKey, Arc<RunTemplate>>,
    /// LRU order: front = coldest, back = hottest.
    order: Vec<CacheKey>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl CacheInner {
    fn new(capacity: usize) -> Self {
        CacheInner {
            map: HashMap::new(),
            order: Vec::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
        }
    }

    fn touch(&mut self, key: &CacheKey) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos);
            self.order.push(k);
        }
    }

    fn get_or_build(
        &mut self,
        scenario: &'static Scenario,
        merged: ScenarioParams,
    ) -> (Arc<RunTemplate>, bool) {
        let key = CacheKey {
            scenario: scenario.name,
            shape: ScenarioParams {
                seed: None,
                ..merged
            },
        };
        if let Some(tpl) = self.map.get(&key) {
            self.hits += 1;
            let tpl = Arc::clone(tpl);
            self.touch(&key);
            return (tpl, true);
        }
        self.misses += 1;
        let tpl = Arc::new(RunTemplate::build(scenario, merged));
        if self.map.len() >= self.capacity {
            let coldest = self.order.remove(0);
            self.map.remove(&coldest);
        }
        self.map.insert(key.clone(), Arc::clone(&tpl));
        self.order.push(key);
        (tpl, false)
    }
}

fn cache() -> &'static Mutex<CacheInner> {
    static CACHE: OnceLock<Mutex<CacheInner>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(CacheInner::new(DEFAULT_CACHE_CAPACITY)))
}

fn lock_cache() -> std::sync::MutexGuard<'static, CacheInner> {
    // A panic inside a supervised build is caught upstream; the cache
    // state itself is always consistent, so poisoning is ignorable.
    cache().lock().unwrap_or_else(|e| e.into_inner())
}

/// Current hit/miss counters and occupancy of the process-wide cache.
pub fn cache_stats() -> CacheStats {
    let c = lock_cache();
    CacheStats {
        hits: c.hits,
        misses: c.misses,
        len: c.map.len(),
    }
}

/// Drop every cached template and reset the counters (test hook; also
/// the escape hatch if a long-lived process wants its memory back).
pub fn clear_cache() {
    let mut c = lock_cache();
    c.map.clear();
    c.order.clear();
    c.hits = 0;
    c.misses = 0;
}

/// Look up or build the template for fully merged parameters, reporting
/// whether it was a cache hit (the service records this per job).
pub fn lookup(scenario: &'static Scenario, merged: ScenarioParams) -> (Arc<RunTemplate>, bool) {
    lock_cache().get_or_build(scenario, merged)
}

/// The workload a job runs: `params` layered over the scenario's quick
/// shape when `quick` is set, the cached template for that shape, and an
/// instance at `params`' seed (or as built when it names none) under
/// `sched`. Reports whether the template was a cache hit.
pub fn instance(
    scenario: &'static Scenario,
    params: &ScenarioParams,
    quick: bool,
    sched: SchedMode,
) -> (RunInstance, bool) {
    let merged = if quick {
        params.merged(scenario.quick)
    } else {
        *params
    };
    let (tpl, hit) = lookup(scenario, merged);
    let inst = match merged.seed {
        Some(seed) => tpl.instantiate(seed, sched),
        None => tpl.instantiate_as_built(sched),
    };
    (inst, hit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    fn quick_seeded(name: &str, seed: u32) -> (&'static Scenario, ScenarioParams) {
        let sc = scenario::find(name).expect("registered");
        let params = ScenarioParams::default().with_seed(seed).merged(sc.quick);
        (sc, params)
    }

    #[test]
    fn same_seed_instance_matches_cold_run() {
        let (sc, params) = quick_seeded("net8020", 5);
        let tpl = Arc::new(RunTemplate::build(sc, params));
        let inst = tpl.instantiate(5, SchedMode::Exact);
        let warm = inst.run().unwrap();
        let cold = sc.build_quick(&params).run_cold().unwrap();
        assert_eq!(warm.raster_hash(), cold.raster_hash());
        assert_eq!(warm.cycles, cold.cycles);
        assert_eq!(warm.instret, cold.instret);
    }

    #[test]
    fn reseeded_instance_matches_cold_run_at_that_seed() {
        let (sc, params) = quick_seeded("net8020", 5);
        let tpl = Arc::new(RunTemplate::build(sc, params));
        let inst = tpl.instantiate(6, SchedMode::Exact);
        let warm = inst.run().unwrap();
        let cold_params = ScenarioParams {
            seed: Some(6),
            ..params
        };
        let cold = sc.build_quick(&cold_params).run_cold().unwrap();
        assert_eq!(warm.raster_hash(), cold.raster_hash());
        assert_eq!(warm.cycles, cold.cycles);
        assert_eq!(warm.instret, cold.instret);
        // And the two seeds genuinely differ.
        let base = tpl.instantiate(5, SchedMode::Exact).run().unwrap();
        assert_ne!(warm.raster_hash(), base.raster_hash());
    }

    #[test]
    fn same_seed_instances_read_the_prototype_in_place() {
        let (sc, params) = quick_seeded("net8020", 5);
        let tpl = Arc::new(RunTemplate::build(sc, params));
        let proto = tpl.workload.image();
        let same = tpl.instantiate(5, SchedMode::Exact);
        assert!(std::ptr::eq(same.image(), proto));
        assert!(std::ptr::eq(same.clone_box().image(), proto));
        let reseeded = tpl.instantiate(6, SchedMode::Exact);
        assert!(!std::ptr::eq(reseeded.image(), proto));
    }

    #[test]
    fn instances_never_alias_writable_state() {
        let (sc, params) = quick_seeded("net8020", 5);
        let tpl = Arc::new(RunTemplate::build(sc, params));
        let a = tpl.instantiate(5, SchedMode::Exact);
        let mut b = tpl.instantiate(5, SchedMode::Exact);
        let first = a.run().unwrap();
        // Mutate instance B's configuration and run it: instance A and
        // the template must be unaffected.
        b.cfg_mut().system.sched = SchedMode::Relaxed {
            quantum: 1024,
            timing: izhi_sim::TimingModel::Unit,
        };
        let _ = b.run().unwrap();
        let again = a.run().unwrap();
        assert_eq!(first.raster_hash(), again.raster_hash());
        assert_eq!(first.cycles, again.cycles);
        // A third instantiation after all those runs still replays the
        // pristine snapshot.
        let c = tpl.instantiate(5, SchedMode::Exact).run().unwrap();
        assert_eq!(first.raster_hash(), c.raster_hash());
        assert_eq!(first.cycles, c.cycles);
        assert_eq!(first.instret, c.instret);
    }

    #[test]
    #[should_panic(expected = "RunInstance shape diverged from its template")]
    fn an_instance_cannot_switch_off_assembler_relaxation() {
        // The snapshot holds the program assembled with relaxation on; an
        // instance told to run without it must not silently run that
        // program anyway.
        let (sc, params) = quick_seeded("net8020", 5);
        let tpl = Arc::new(RunTemplate::build(sc, params));
        let mut inst = tpl.instantiate(5, SchedMode::Exact);
        inst.cfg_mut().system.asm_relax = false;
        let _ = inst.run();
    }

    #[test]
    fn cache_is_shape_keyed_and_lru_bounded() {
        let sc = scenario::find("net8020").expect("registered");
        let mut cache = CacheInner::new(2);
        let small = ScenarioParams::default()
            .with_n(20)
            .with_ticks(10)
            .with_cores(1)
            .with_seed(1);
        // Same shape, different seed: one build, then hits.
        let (_, hit) = cache.get_or_build(sc, small);
        assert!(!hit);
        let (_, hit) = cache.get_or_build(sc, small.with_seed(2));
        assert!(hit, "seed must not be part of the cache key");
        // Two more shapes evict the coldest.
        let (_, hit) = cache.get_or_build(sc, small.with_ticks(12));
        assert!(!hit);
        let (_, hit) = cache.get_or_build(sc, small.with_ticks(14));
        assert!(!hit);
        assert_eq!(cache.map.len(), 2, "capacity bound");
        let (_, hit) = cache.get_or_build(sc, small);
        assert!(!hit, "the original shape was evicted (LRU)");
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 4);
    }

    #[test]
    fn patch_map_replay_round_trips() {
        let mut src = MainMemory::new(1 << 16, 1 << 12);
        let mut dst = MainMemory::new(1 << 16, 1 << 12);
        let mut pm = PatchMap::default();
        assert!(src.write_bytes(0x100, &[1, 2, 3, 4]));
        pm.record(0x100, 4);
        pm.record(0x200, 0); // empty spans are dropped
        assert_eq!(pm.spans(), &[(0x100, 4)]);
        assert_eq!(pm.bytes(), 4);
        pm.replay(&src, &mut dst);
        assert_eq!(dst.read_bytes(0x100, 4).unwrap(), vec![1, 2, 3, 4]);
    }
}
