//! One job along the path the battery runner and the service workers
//! take — `Scenario` → `template::lookup` → `RunTemplate::instantiate` →
//! `supervise::run_supervised` — and the cold replay that times the
//! simulator layers a template keeps to itself.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use izhi_bench::battery::SchedSpec;
use izhi_bench::supervise::{
    panic_message, run_supervised, RunError, RunErrorKind, SuperviseConfig,
};
use izhi_programs::engine::{self, GuestImage, WorkloadResult};
use izhi_programs::scenario::{self, Scenario, ScenarioParams, Workload};
use izhi_programs::{template, EngineConfig};
use izhi_sim::{PerfCounters, SchedMode, SimError, System};

use crate::trace;

/// Every failure class of the supervisor, in report order.
pub const KINDS: [RunErrorKind; 5] = [
    RunErrorKind::Panic,
    RunErrorKind::GuestTrap,
    RunErrorKind::CycleBudget,
    RunErrorKind::WallClockTimeout,
    RunErrorKind::VerifyFailed,
];

/// A kind of job: one scenario shape under one scheduling mode.
pub struct Class {
    /// Report label, `scenario/sched-label`.
    pub name: String,
    /// The registered scenario.
    pub scenario: &'static Scenario,
    /// Build parameters: the template's cache key plus its build seed.
    pub params: ScenarioParams,
    /// Scheduling mode every job of the class runs under.
    pub sched: SchedMode,
}

impl Class {
    /// The class of registered scenario `name` at `params` under `sched`.
    pub fn new(name: &str, params: ScenarioParams, sched: SchedMode) -> Class {
        let scenario =
            scenario::find(name).unwrap_or_else(|| panic!("scenario `{name}` is not registered"));
        Class {
            name: format!("{name}/{}", SchedSpec::label_of(sched)),
            scenario,
            params,
            sched,
        }
    }
}

/// Modelled-core counters of a run, summed over its cores.
#[derive(Debug, Clone, Copy, Default)]
pub struct Model {
    /// Core cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instret: u64,
    /// Data-hazard stall cycles.
    pub hazard: u64,
    /// Branch and jump flush cycles.
    pub flush: u64,
    /// Cache-refill stall cycles.
    pub mem: u64,
    /// Divider stall cycles.
    pub div: u64,
    /// D-cache hits.
    pub dcache_hits: u64,
    /// D-cache misses.
    pub dcache_misses: u64,
}

impl Model {
    fn of(counters: &[PerfCounters]) -> Model {
        let mut m = Model::default();
        for c in counters {
            m.add(&Model {
                cycles: c.cycles,
                instret: c.instret,
                hazard: c.hazard_stalls,
                flush: c.flush_cycles,
                mem: c.mem_stall_cycles,
                div: c.div_stall_cycles,
                dcache_hits: c.dcache_hits,
                dcache_misses: c.dcache_misses,
            });
        }
        m
    }

    /// Add another run's counters.
    pub fn add(&mut self, o: &Model) {
        self.cycles += o.cycles;
        self.instret += o.instret;
        self.hazard += o.hazard;
        self.flush += o.flush;
        self.mem += o.mem;
        self.div += o.div;
        self.dcache_hits += o.dcache_hits;
        self.dcache_misses += o.dcache_misses;
    }
}

/// A finished job, reduced to what the checks and the metrics use.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Simulated cycles on the job's clock.
    pub cycles: u64,
    /// Retired instructions.
    pub instret: u64,
    /// Order-independent raster hash.
    pub raster_hash: u64,
    /// Final weight hash of plastic runs.
    pub weight_hash: Option<u64>,
    /// Modelled execution time of the measured region (slowest core).
    pub exec_s: f64,
    /// Simulated 1 ms ticks.
    pub ticks: u32,
    /// Region-of-interest counters of the modelled cores.
    pub model: Model,
}

impl JobResult {
    fn of(r: &WorkloadResult) -> JobResult {
        JobResult {
            cycles: r.cycles,
            instret: r.instret,
            raster_hash: r.raster_hash(),
            weight_hash: r.weight_hash,
            exec_s: r.exec_time_s(),
            ticks: r.ticks,
            model: Model::of(&r.counters),
        }
    }

    /// Whether two runs simulated the same thing: equal cycles, retired
    /// instructions, raster hash and weight hash.
    pub fn same_run(&self, o: &JobResult) -> bool {
        self.cycles == o.cycles
            && self.instret == o.instret
            && self.raster_hash == o.raster_hash
            && self.weight_hash == o.weight_hash
    }
}

/// How one job ended.
pub struct JobOutcome {
    /// Supervised attempts.
    pub attempts: u32,
    /// The result, or the supervisor's classified failure.
    pub result: Result<JobResult, RunError>,
}

/// Run one job of `class` at `seed`. With tracing on, spans sit around
/// the lookup, the instantiation, the supervised run and, inside it, the
/// template run and the scenario's verify hook.
pub fn run_job(class: &Class, seed: u32, job: u64) -> JobOutcome {
    let run = catch_unwind(AssertUnwindSafe(|| {
        let _job = trace::span("job", Some(job));
        let (tpl, _) = {
            let _s = trace::span("template.lookup", Some(job));
            template::lookup(class.scenario, class.params)
        };
        let instantiate = if tpl.params().seed == Some(seed) {
            "template.instantiate_same"
        } else {
            "template.instantiate_reseed"
        };
        let inst = {
            let _s = trace::span(instantiate, Some(job));
            tpl.instantiate(seed, class.sched)
        };
        let _s = trace::span("supervise.run_supervised", Some(job));
        let sup = SuperviseConfig::default();
        if trace::enabled() {
            let mut traced = Traced {
                inner: Box::new(inst),
                job,
            };
            run_supervised(&mut traced, &sup)
        } else {
            let mut inst = inst;
            run_supervised(&mut inst, &sup)
        }
    }));
    let (attempts, result) = match run {
        Ok(Ok(s)) => (s.attempts, Ok(JobResult::of(&s.result))),
        Ok(Err(e)) => (e.attempts, Err(e)),
        Err(payload) => (
            1,
            Err(RunError {
                kind: RunErrorKind::Panic,
                message: panic_message(&*payload),
                attempts: 1,
                source: None,
            }),
        ),
    };
    JobOutcome { attempts, result }
}

/// A job's workload with spans around the supervisor's calls into the
/// template (`run_budgeted`) and the scenario (`verify`).
struct Traced {
    inner: Box<dyn Workload>,
    job: u64,
}

impl Workload for Traced {
    fn cfg(&self) -> &EngineConfig {
        self.inner.cfg()
    }

    fn cfg_mut(&mut self) -> &mut EngineConfig {
        self.inner.cfg_mut()
    }

    fn image(&self) -> &GuestImage {
        self.inner.image()
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(Traced {
            inner: self.inner.clone_box(),
            job: self.job,
        })
    }

    fn max_cycles(&self) -> u64 {
        self.inner.max_cycles()
    }

    fn run_budgeted(&self, max_cycles: u64) -> Result<WorkloadResult, SimError> {
        let _s = trace::span("template.run", Some(self.job));
        self.inner.run_budgeted(max_cycles)
    }

    fn verify(&self, res: &WorkloadResult) -> Result<(), String> {
        let _s = trace::span("scenario.verify", Some(self.job));
        self.inner.verify(res)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Time one instantiation of `class`'s cached template on each path, so
/// that every workload reports both: at its build seed (snapshot replay)
/// and at `seed` (host-side image rebuild).
pub fn probe_instantiate(class: &Class, seed: u32) {
    let (tpl, _) = template::lookup(class.scenario, class.params);
    {
        let _s = trace::span("template.instantiate_same", None);
        drop(tpl.instantiate_as_built(class.sched));
    }
    let _s = trace::span("template.instantiate_reseed", None);
    drop(tpl.instantiate(seed, class.sched));
}

/// One cold replay: each layer's host time and the run it produced.
pub struct Replay {
    /// Report label, `scenario/sched-label`.
    pub class: String,
    /// `Scenario::build`.
    pub build_s: f64,
    /// `engine::prepare_run`: assemble, relax, predecode, load.
    pub prepare_s: f64,
    /// `engine::run_prepared_system`.
    pub run_s: f64,
    /// Instructions retired inside kernel batches, summed over cores.
    pub kernel_instret: u64,
    /// What the run simulated.
    pub result: JobResult,
}

/// Replay `class` at `seed` under `sched` from scratch, one layer call at
/// a time — `Scenario::build` → `engine::prepare_run` →
/// `System::from_snapshot` → `engine::run_prepared_system`, the cold path
/// of `engine::run_workload` — then run the scenario's verify hook.
pub fn cold_replay(class: &Class, seed: u32, sched: SchedMode) -> Result<Replay, String> {
    let label = format!("{}/{}", class.scenario.name, SchedSpec::label_of(sched));
    let replay = catch_unwind(AssertUnwindSafe(|| -> Result<Replay, String> {
        let params = ScenarioParams {
            seed: Some(seed),
            ..class.params
        };
        let t = Instant::now();
        let wl = {
            let _s = trace::span("scenario.build", None);
            class.scenario.build(&params)
        };
        let build_s = t.elapsed().as_secs_f64();
        let mut cfg = wl.cfg().clone();
        cfg.system.sched = sched;
        let t = Instant::now();
        let prep = {
            let _s = trace::span("engine.prepare_run", None);
            engine::prepare_run(&cfg, wl.image())
        };
        let prepare_s = t.elapsed().as_secs_f64();
        let mut system = cfg.system.clone();
        system.n_cores = cfg.n_cores;
        let mut sys = System::from_snapshot(system, prep.mem, prep.code, prep.entry);
        let t = Instant::now();
        let res = {
            let _s = trace::span("engine.run_prepared_system", None);
            engine::run_prepared_system(&mut sys, &cfg, wl.max_cycles())
        }
        .map_err(|e| e.to_string())?;
        let run_s = t.elapsed().as_secs_f64();
        wl.verify(&res)?;
        Ok(Replay {
            class: label.clone(),
            build_s,
            prepare_s,
            run_s,
            kernel_instret: (0..sys.n_cores()).map(|i| sys.core(i).kernel_instret).sum(),
            result: JobResult::of(&res),
        })
    }));
    match replay {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(format!("{label} cold replay at seed {seed}: {e}")),
        Err(payload) => Err(format!(
            "{label} cold replay at seed {seed} panicked: {}",
            panic_message(&*payload)
        )),
    }
}
