//! The scenario battery runner: shard a battery of registered scenarios
//! (seeds × scheduling modes) across host threads and collect one
//! [`BatteryRow`] per run.
//!
//! The runner is the scale path the ROADMAP asks for — Table VI already
//! fans puzzles out via `std::thread::scope`; this generalises that to
//! *any* registered scenario. Every simulated system is fully
//! independent, so the work list `(scenario, seed, sched)` is claimed
//! from an atomic cursor by `host_threads` scoped workers.
//!
//! Two checks ride on the rows:
//!
//! * the scenario's own [`izhi_programs::scenario::Workload::verify`]
//!   hook (raster sanity, per-population activity, the solved-grid
//!   check), recorded per row;
//! * the **bit-identity battery check** ([`check_rows`]): all rows of one
//!   `(spec, scenario, seed)` cell must agree on the order-independent raster
//!   hash across `Exact`/`Relaxed`/`RelaxedParallel` — the cross-mode
//!   correctness contract the sequential test suites pin, enforced here
//!   for every battery cell.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use izhi_programs::scenario::{self, ScenarioParams, Workload};
use izhi_programs::template;
use izhi_sim::{FaultPlan, SchedMode, TimingModel};

use crate::json::Value;
use crate::supervise::{self, panic_message, RunErrorKind, SuperviseConfig};

/// A scheduling mode under a battery label.
#[derive(Debug, Clone, Copy)]
pub struct SchedSpec {
    /// Row label ("exact", "relaxed", "relaxed-par", "relaxed-est",
    /// "relaxed-par-est").
    pub label: &'static str,
    /// The mode a row's workload runs under.
    pub mode: SchedMode,
}

impl SchedSpec {
    /// The stable battery label of a scheduling mode: the scheduler name
    /// with an `-est` suffix for Estimated timing. Unit-timing labels are
    /// the historical ones, so committed baseline keys stay valid.
    pub fn label_of(mode: SchedMode) -> &'static str {
        match mode {
            SchedMode::Exact => "exact",
            SchedMode::Relaxed {
                timing: TimingModel::Unit,
                ..
            } => "relaxed",
            SchedMode::Relaxed {
                timing: TimingModel::Estimated,
                ..
            } => "relaxed-est",
            SchedMode::RelaxedParallel {
                timing: TimingModel::Unit,
                ..
            } => "relaxed-par",
            SchedMode::RelaxedParallel {
                timing: TimingModel::Estimated,
                ..
            } => "relaxed-par-est",
        }
    }

    /// A spec for `mode` under its canonical label.
    pub fn of(mode: SchedMode) -> SchedSpec {
        SchedSpec {
            label: Self::label_of(mode),
            mode,
        }
    }

    /// The default battery mode set — every sched × timing combination:
    /// exact (cycle-accurate clock), and the relaxed scheduler on one
    /// host thread (`relaxed`) and on `host_threads` (`relaxed-par`) at
    /// the default quantum, under Unit and under Estimated timing.
    /// `host_threads` is forced on the parallel rows so they stay
    /// interpretable on single-CPU CI runners.
    pub fn default_set(host_threads: u32) -> Vec<SchedSpec> {
        let mut set = vec![SchedSpec::of(SchedMode::Exact)];
        for timing in [TimingModel::Unit, TimingModel::Estimated] {
            set.push(SchedSpec::of(SchedMode::Relaxed {
                quantum: SchedMode::DEFAULT_QUANTUM,
                timing,
            }));
            set.push(SchedSpec::of(SchedMode::RelaxedParallel {
                quantum: SchedMode::DEFAULT_QUANTUM,
                host_threads,
                timing,
            }));
        }
        set
    }

    /// The subset of [`SchedSpec::default_set`] whose rows report the
    /// given clock ("exact", "unit" or "estimated") — the CLI's
    /// `--timing` battery filter.
    pub fn timing_set(host_threads: u32, timing_label: &str) -> Vec<SchedSpec> {
        Self::default_set(host_threads)
            .into_iter()
            .filter(|s| s.mode.timing_label() == timing_label)
            .collect()
    }
}

/// One battery cell: a scenario at fixed parameters, fanned over seeds
/// and scheduling modes.
#[derive(Debug, Clone)]
pub struct BatterySpec {
    /// Registered scenario name.
    pub scenario: &'static str,
    /// Base parameters (the seed field is overridden per row).
    pub params: ScenarioParams,
    /// Seeds to fan out.
    pub seeds: Vec<u32>,
    /// Scheduling modes to fan out.
    pub scheds: Vec<SchedSpec>,
    /// Use the scenario's CI-sized quick parameters as the base layer.
    pub quick: bool,
    /// Fault-injection schedule installed into every row's system
    /// (empty — the default — injects nothing and leaves rows
    /// bit-identical to an unplanned run).
    pub faults: FaultPlan,
    /// Supervision knobs for every row: wall-clock limit, guest-cycle
    /// budget override and retry policy.
    pub supervise: SuperviseConfig,
}

impl BatterySpec {
    /// A quick-scale spec over the scenario's default battery seeds and
    /// the default mode set.
    pub fn quick(scenario: &'static scenario::Scenario, host_threads: u32) -> Self {
        BatterySpec {
            scenario: scenario.name,
            params: ScenarioParams::default(),
            seeds: scenario.battery_seeds.to_vec(),
            scheds: SchedSpec::default_set(host_threads),
            quick: true,
            faults: FaultPlan::default(),
            supervise: SuperviseConfig::default(),
        }
    }
}

/// One measured battery run.
#[derive(Debug, Clone)]
pub struct BatteryRow {
    /// Index of the [`BatterySpec`] that produced this row. Identity
    /// cells group per spec: two specs may legitimately run the same
    /// scenario+seed at different parameters (e.g. a scale comparison)
    /// and must not be hash-compared against each other.
    pub spec: usize,
    /// Scenario name.
    pub scenario: String,
    /// Seed of this row.
    pub seed: u32,
    /// Scheduling-mode label.
    pub sched: &'static str,
    /// The clock the row's `sim_cycles` are measured on: "exact" (the
    /// cycle-accurate model), "unit" (1 cycle per instruction) or
    /// "estimated" (static per-op-class costs). Only estimated rows are
    /// comparable to exact rows on simulated time.
    pub timing: &'static str,
    /// Relaxed quantum (0 for exact rows).
    pub quantum: u64,
    /// Forced host threads (1 for exact and `Relaxed` rows).
    pub host_threads: u32,
    /// Host wall time of the run.
    pub wall_s: f64,
    /// Simulated cycles (scheduling-mode clock).
    pub sim_cycles: u64,
    /// Retired instructions.
    pub sim_instret: u64,
    /// Total spikes.
    pub spikes: u64,
    /// Order-independent raster hash (bit-identity check across modes).
    pub raster_hash: u64,
    /// Order-independent hash of the final synaptic weight table —
    /// `Some` only for plastic (STDP) scenarios, where it joins the
    /// cross-mode bit-identity check: scheduling must not change how the
    /// weights evolved.
    pub weight_hash: Option<u64>,
    /// Whether the run completed and passed the scenario's
    /// self-verification hook.
    pub verified: bool,
    /// Failure message, if any.
    pub error: Option<String>,
    /// Structured failure class of an unverified row ([`RunErrorKind`]),
    /// replacing stringly error matching.
    pub error_kind: Option<RunErrorKind>,
    /// Supervised attempts the row took (> 1 only after retried
    /// transients).
    pub attempts: u32,
}

impl BatteryRow {
    /// Stable gate key of this row.
    pub fn key(&self) -> String {
        format!("{}:{}:{}", self.scenario, self.seed, self.sched)
    }
}

/// Shards battery runs across host worker threads.
#[derive(Debug, Clone, Copy)]
pub struct BatteryRunner {
    /// Worker thread count (each worker runs whole simulations).
    pub host_threads: usize,
}

impl BatteryRunner {
    /// Resolve the worker count the way the parallel scheduler does
    /// ([`izhi_sim::resolve_host_threads`]): `IZHI_HOST_THREADS` if set,
    /// else the host's available parallelism.
    pub fn auto() -> Self {
        BatteryRunner {
            host_threads: izhi_sim::resolve_host_threads(0) as usize,
        }
    }

    /// Run every `(scenario, seed, sched)` row of `specs`, sharded across
    /// [`BatteryRunner::host_threads`] scoped workers. Row order is
    /// deterministic (the work list's order) regardless of thread count.
    ///
    /// Every row runs under supervision ([`crate::supervise`]): a row
    /// that panics, traps, stalls past its wall-clock deadline or fails
    /// verification becomes a *failed row* (`verified = false` with a
    /// structured [`RunErrorKind`]) while the remaining jobs keep
    /// sharding — one bad job can never abort or deadlock the battery.
    /// Only unknown scenario names error the whole call.
    pub fn run(&self, specs: &[BatterySpec]) -> Result<Vec<BatteryRow>, String> {
        let mut jobs = Vec::new();
        for (spec_idx, spec) in specs.iter().enumerate() {
            scenario::find(spec.scenario)
                .ok_or_else(|| format!("unknown scenario `{}`", spec.scenario))?;
            for &seed in &spec.seeds {
                for &sched in &spec.scheds {
                    jobs.push(Job {
                        spec_idx,
                        spec,
                        seed,
                        sched,
                    });
                }
            }
        }
        let cursor = AtomicUsize::new(0);
        // One mutex *per slot*: a commit locks only its own row, so no
        // shared lock spans a run and a worker dying on one job cannot
        // poison any other job's slot (the historical single-Vec mutex
        // aborted the whole battery on the first panicking worker).
        let slots: Vec<Mutex<Option<BatteryRow>>> =
            (0..jobs.len()).map(|_| Mutex::new(None)).collect();
        let workers = self.host_threads.clamp(1, jobs.len().max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    // `run_one` supervises the simulation itself; this
                    // outer guard catches panics in scenario *build* and
                    // row assembly, so the worker's claim loop (and the
                    // scope join) always survives.
                    let row =
                        catch_unwind(AssertUnwindSafe(|| run_one(job))).unwrap_or_else(|payload| {
                            failed_row(job, RunErrorKind::Panic, panic_message(&*payload), 1, 0.0)
                        });
                    if let Ok(mut slot) = slots[i].lock() {
                        *slot = Some(row);
                    }
                });
            }
        });
        Ok(slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .unwrap_or_else(|| {
                        // Unreachable with the guards above; synthesise a
                        // failed row rather than abort the battery.
                        failed_row(
                            &jobs[i],
                            RunErrorKind::Panic,
                            "worker died before committing a row".to_string(),
                            1,
                            0.0,
                        )
                    })
            })
            .collect())
    }
}

/// One work item of a battery run.
struct Job<'a> {
    spec_idx: usize,
    spec: &'a BatterySpec,
    seed: u32,
    sched: SchedSpec,
}

impl Job<'_> {
    /// `(quantum, host_threads)` the row reports for its mode.
    fn mode_fields(&self) -> (u64, u32) {
        match self.sched.mode {
            SchedMode::Exact => (0, 1),
            SchedMode::Relaxed { quantum, .. } => (quantum, 1),
            SchedMode::RelaxedParallel {
                quantum,
                host_threads,
                ..
            } => (quantum, host_threads),
        }
    }
}

/// A row for a job whose run failed: zeroed measurements, the structured
/// failure class, and a message prefixed with the row's identity.
fn failed_row(
    job: &Job<'_>,
    kind: RunErrorKind,
    message: String,
    attempts: u32,
    wall_s: f64,
) -> BatteryRow {
    let (quantum, host_threads) = job.mode_fields();
    BatteryRow {
        spec: job.spec_idx,
        scenario: job.spec.scenario.to_string(),
        seed: job.seed,
        sched: job.sched.label,
        timing: job.sched.mode.timing_label(),
        quantum,
        host_threads,
        wall_s,
        sim_cycles: 0,
        sim_instret: 0,
        spikes: 0,
        raster_hash: 0,
        weight_hash: None,
        verified: false,
        error: Some(message),
        error_kind: Some(kind),
        attempts,
    }
}

/// Build and run one battery row under supervision.
fn run_one(job: &Job<'_>) -> BatteryRow {
    let spec = job.spec;
    let sc = scenario::find(spec.scenario).expect("checked by the runner");
    let params = ScenarioParams {
        seed: Some(job.seed),
        ..spec.params
    };
    // Every row of a (scenario, shape) fan-out reuses one cached build
    // (assembly, memory snapshot, predecode) and only re-patches the
    // seed-dependent tables.
    let (mut wl, _) = template::instance(sc, &params, spec.quick, job.sched.mode);
    wl.cfg_mut().system.faults = spec.faults.clone();
    let (quantum, host_threads) = job.mode_fields();
    let start = Instant::now();
    let outcome = supervise::run_supervised(&mut wl, &spec.supervise);
    let wall_s = start.elapsed().as_secs_f64();
    match outcome {
        Ok(sup) => BatteryRow {
            spec: job.spec_idx,
            scenario: spec.scenario.to_string(),
            seed: job.seed,
            sched: job.sched.label,
            timing: job.sched.mode.timing_label(),
            quantum,
            host_threads,
            wall_s,
            sim_cycles: sup.result.cycles,
            sim_instret: sup.result.instret,
            spikes: sup.result.raster.spikes.len() as u64,
            raster_hash: sup.result.raster_hash(),
            weight_hash: sup.result.weight_hash,
            verified: true,
            error: None,
            error_kind: None,
            attempts: sup.attempts,
        },
        Err(e) => failed_row(
            job,
            e.kind,
            format!(
                "{}[seed={}]/{}: {}",
                spec.scenario, job.seed, job.sched.label, e.message
            ),
            e.attempts,
            wall_s,
        ),
    }
}

/// The battery acceptance check: every row verified, and all rows of one
/// `(spec, scenario, seed)` cell bit-identical on the raster hash across
/// scheduling modes (per spec: different specs may run the same
/// scenario+seed at different parameters).
pub fn check_rows(rows: &[BatteryRow]) -> Result<(), String> {
    for row in rows {
        if !row.verified {
            let kind = row
                .error_kind
                .map_or("verification failed", RunErrorKind::label);
            return Err(format!(
                "{}: {kind}: {}",
                row.key(),
                row.error.as_deref().unwrap_or("unknown")
            ));
        }
    }
    for row in rows {
        if let Some(reference) = rows
            .iter()
            .find(|r| r.spec == row.spec && r.scenario == row.scenario && r.seed == row.seed)
        {
            if reference.raster_hash != row.raster_hash {
                return Err(format!(
                    "{}: raster hash {:#018x} != {}'s {:#018x} — scheduling changed the physics",
                    row.key(),
                    row.raster_hash,
                    reference.key(),
                    reference.raster_hash,
                ));
            }
            if reference.weight_hash != row.weight_hash {
                return Err(format!(
                    "{}: weight hash {:?} != {}'s {:?} — scheduling changed the plasticity",
                    row.key(),
                    row.weight_hash,
                    reference.key(),
                    reference.weight_hash,
                ));
            }
        }
    }
    Ok(())
}

/// The `"battery"` JSON array of the CLI's battery artifact (the shape of
/// the `battery` rows committed in `BENCH_9.json`). Each entry carries a
/// stable `key` (see [`BatteryRow::key`]).
pub fn rows_json(rows: &[BatteryRow]) -> Value {
    let row = |r: &BatteryRow| {
        let mut doc = vec![
            ("key", r.key().into()),
            ("scenario", r.scenario.as_str().into()),
            ("seed", r.seed.into()),
            ("sched", r.sched.into()),
            ("timing", r.timing.into()),
            ("quantum", r.quantum.into()),
            ("host_threads", r.host_threads.into()),
            ("wall_s", Value::decimal(r.wall_s, 6)),
            ("sim_cycles", r.sim_cycles.into()),
            ("sim_instret", r.sim_instret.into()),
            ("spikes", r.spikes.into()),
            ("raster_hash", format!("{:#018x}", r.raster_hash).into()),
            ("verified", r.verified.into()),
        ];
        doc.extend(
            r.weight_hash
                .map(|w| ("weight_hash", format!("{w:#018x}").into())),
        );
        doc.extend(r.error_kind.map(|k| ("error_kind", k.label().into())));
        Value::object(doc)
    };
    Value::Array(rows.iter().map(row).collect())
}

/// Render a human-readable battery table.
pub fn rows_table(rows: &[BatteryRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<34} {:>15} {:>9} {:>3} {:>9} {:>13} {:>13} {:>8} {:>18} {:>18} {:>5}",
        "battery row",
        "sched",
        "timing",
        "ht",
        "wall [s]",
        "sim cycles",
        "sim instret",
        "spikes",
        "raster hash",
        "weight hash",
        "ok"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<34} {:>15} {:>9} {:>3} {:>9.3} {:>13} {:>13} {:>8} {:#018x} {:>18} {:>5}",
            format!("{}[seed={}]", r.scenario, r.seed),
            r.sched,
            r.timing,
            r.host_threads,
            r.wall_s,
            r.sim_cycles,
            r.sim_instret,
            r.spikes,
            r.raster_hash,
            r.weight_hash
                .map_or_else(|| "-".to_string(), |w| format!("{w:#018x}")),
            if r.verified { "yes" } else { "NO" },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(
        scenario: &str,
        seed: u32,
        sched: &'static str,
        hash: u64,
        verified: bool,
    ) -> BatteryRow {
        BatteryRow {
            spec: 0,
            scenario: scenario.into(),
            seed,
            sched,
            timing: "unit",
            quantum: 0,
            host_threads: 1,
            wall_s: 0.1,
            sim_cycles: 10,
            sim_instret: 10,
            spikes: 3,
            raster_hash: hash,
            weight_hash: None,
            verified,
            error: (!verified).then(|| "boom".into()),
            error_kind: None,
            attempts: 1,
        }
    }

    #[test]
    fn check_rows_accepts_identical_cells() {
        let rows = vec![
            row("a", 1, "exact", 0xAA, true),
            row("a", 1, "relaxed", 0xAA, true),
            row("a", 2, "exact", 0xBB, true),
        ];
        assert!(check_rows(&rows).is_ok());
    }

    #[test]
    fn check_rows_rejects_cross_mode_divergence() {
        let rows = vec![
            row("a", 1, "exact", 0xAA, true),
            row("a", 1, "relaxed", 0xAB, true),
        ];
        let err = check_rows(&rows).unwrap_err();
        assert!(err.contains("scheduling changed the physics"), "{err}");
    }

    #[test]
    fn check_rows_rejects_cross_mode_weight_divergence() {
        let mut a = row("stdp", 1, "exact", 0xAA, true);
        let mut b = row("stdp", 1, "relaxed", 0xAA, true);
        a.weight_hash = Some(0x11);
        b.weight_hash = Some(0x12);
        let err = check_rows(&[a, b]).unwrap_err();
        assert!(err.contains("scheduling changed the plasticity"), "{err}");
    }

    #[test]
    fn json_rows_carry_the_weight_hash_when_present() {
        let mut r = row("net8020_stdp", 21, "exact", 0x1234, true);
        r.weight_hash = Some(0xBEEF);
        let json = rows_json(&[r]).to_string();
        assert!(
            json.contains("\"weight_hash\": \"0x000000000000beef\""),
            "{json}"
        );
        let plain = rows_json(&[row("net8020", 5, "exact", 0x1, true)]).to_string();
        assert!(!plain.contains("weight_hash"), "non-plastic rows omit it");
    }

    #[test]
    fn check_rows_compares_cells_per_spec_only() {
        // Two specs running the same scenario+seed at different
        // parameters legitimately differ in raster hash.
        let mut a = row("a", 1, "exact", 0xAA, true);
        let mut b = row("a", 1, "exact", 0xBB, true);
        a.spec = 0;
        b.spec = 1;
        assert!(check_rows(&[a, b]).is_ok());
    }

    #[test]
    fn check_rows_rejects_unverified() {
        let rows = vec![row("a", 1, "exact", 0xAA, false)];
        let err = check_rows(&rows).unwrap_err();
        assert!(err.contains("verification failed"), "{err}");
    }

    #[test]
    fn json_rows_carry_stable_keys_and_timing() {
        let rows = vec![row("net8020", 5, "relaxed-par", 0x1234, true)];
        let json = rows_json(&rows).to_string();
        assert!(json.contains("\"key\": \"net8020:5:relaxed-par\""));
        assert!(json.contains("\"timing\": \"unit\""));
        assert!(json.contains("\"verified\": true"));
        assert!(json.contains("\"raster_hash\": \"0x0000000000001234\""));
    }

    #[test]
    fn default_set_covers_every_sched_timing_combination() {
        let set = SchedSpec::default_set(2);
        let labels: Vec<_> = set.iter().map(|s| s.label).collect();
        // Unit-timing labels keep their historical names so committed
        // baseline keys stay valid; estimated rows get the -est suffix.
        assert_eq!(
            labels,
            [
                "exact",
                "relaxed",
                "relaxed-par",
                "relaxed-est",
                "relaxed-par-est"
            ]
        );
        for spec in &set {
            assert_eq!(spec.label, SchedSpec::label_of(spec.mode));
        }
    }

    #[test]
    fn timing_set_filters_by_clock() {
        let labels = |t: &str| -> Vec<&'static str> {
            SchedSpec::timing_set(2, t)
                .iter()
                .map(|s| s.label)
                .collect()
        };
        assert_eq!(labels("exact"), ["exact"]);
        assert_eq!(labels("unit"), ["relaxed", "relaxed-par"]);
        assert_eq!(labels("estimated"), ["relaxed-est", "relaxed-par-est"]);
        assert!(labels("bogus").is_empty());
    }

    #[test]
    fn runner_rejects_unknown_scenarios() {
        let spec = BatterySpec {
            scenario: "no_such_scenario",
            params: ScenarioParams::default(),
            seeds: vec![1],
            scheds: SchedSpec::default_set(2),
            quick: true,
            faults: FaultPlan::default(),
            supervise: SuperviseConfig::default(),
        };
        let err = BatteryRunner { host_threads: 1 }.run(&[spec]).unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
    }
}
