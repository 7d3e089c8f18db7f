//! The closed-loop workloads: one job at a time, each started the moment
//! the previous one returns.

use std::time::{Duration, Instant};

use izhi_bench::battery::SchedSpec;
use izhi_programs::scenario::ScenarioParams;
use izhi_programs::template;
use izhi_sim::{SchedMode, TimingModel};

use crate::job::{cold_replay, probe_instantiate, run_job, Class, JobOutcome, JobResult};
use crate::service::{self, ServiceJob};
use crate::{stats, trace, Layers, Report, SETUP_REPEATS};

/// Every generated job seed is at least this. It lies above every
/// registered scenario's default seed, so a re-seeded job never runs at
/// the seed its template was built at.
const SEED_BASE: u32 = 1000;

/// Seed of the `k`-th job of one job class in a run with workload seed
/// `seed`: distinct for the first thousand jobs of a class.
fn job_seed(seed: u64, k: u64) -> u32 {
    SEED_BASE + ((seed % 100_000) * 1000 + k % 1000) as u32
}

/// A closed-loop workload: its job classes and how its jobs are seeded.
pub struct Closed {
    classes: Vec<Class>,
    run_seed: u64,
    /// `Some(s)`: every job runs at `s`, the seed its template was built
    /// at. `None`: every job takes a fresh seed and re-seeds its template.
    fixed_seed: Option<u32>,
    /// Jobs started so far, per class.
    started: Vec<u64>,
}

/// One finished job.
struct Finished {
    class: usize,
    seed: u32,
    outcome: JobOutcome,
}

impl Closed {
    /// The closed-loop workload `name` at workload seed `seed`.
    pub fn named(name: &str, seed: u64) -> Closed {
        let (fixed_seed, classes) = match name {
            "paper_exact" => {
                // Table V's 80-20 network and Table VI's Sudoku at their
                // registry defaults, both built and run at one seed.
                let s = job_seed(seed, 0);
                let at = ScenarioParams::default().with_seed(s);
                let classes = vec![
                    Class::new("net8020", at, SchedMode::Exact),
                    Class::new("sudoku", at, SchedMode::Exact),
                ];
                (Some(s), classes)
            }
            "relaxed_sweep" => {
                let parallel = SchedMode::RelaxedParallel {
                    quantum: SchedMode::DEFAULT_QUANTUM,
                    host_threads: 0,
                    timing: TimingModel::Unit,
                };
                let defaults = ScenarioParams::default();
                let classes = vec![
                    Class::new("net8020", defaults, SchedMode::relaxed()),
                    Class::new("net8020_sharded", defaults, parallel),
                ];
                (None, classes)
            }
            other => panic!("`{other}` is not a closed-loop workload"),
        };
        let started = vec![0; classes.len()];
        Closed {
            classes,
            run_seed: seed,
            fixed_seed,
            started,
        }
    }

    /// Cold set-up: empty the template cache, then build every class's
    /// template. Returns host seconds.
    fn setup(&self) -> f64 {
        template::clear_cache();
        let t = Instant::now();
        for c in &self.classes {
            let _s = trace::span("template.lookup", None);
            template::lookup(c.scenario, c.params);
        }
        t.elapsed().as_secs_f64()
    }

    fn next_seed(&mut self, class: usize) -> u32 {
        let k = self.started[class];
        self.started[class] += 1;
        self.fixed_seed
            .unwrap_or_else(|| job_seed(self.run_seed, k))
    }

    /// Run whole rounds, one job of each class, until `dur` has passed.
    /// Returns the jobs and the host seconds they took.
    fn window(&mut self, dur: Duration, next_job: &mut u64) -> (Vec<Finished>, f64) {
        let start = Instant::now();
        let mut done = Vec::new();
        while start.elapsed() < dur {
            for class in 0..self.classes.len() {
                let seed = self.next_seed(class);
                *next_job += 1;
                let outcome = run_job(&self.classes[class], seed, *next_job);
                done.push(Finished {
                    class,
                    seed,
                    outcome,
                });
            }
        }
        (done, start.elapsed().as_secs_f64())
    }

    /// Count the jobs and fail those without a verified result and, on a
    /// fixed seed, those whose run differs from their class's first.
    fn check(&self, done: &[Finished], report: &mut Report) {
        for d in done {
            report.attempted += 1;
            let class = &self.classes[d.class];
            match &d.outcome.result {
                Err(e) => report.fail(format!("{} seed {}: {e}", class.name, d.seed)),
                Ok(r) if self.fixed_seed.is_some() => {
                    let first = done
                        .iter()
                        .find(|f| f.class == d.class)
                        .and_then(|f| f.outcome.result.as_ref().ok());
                    if first.is_some_and(|f| !f.same_run(r)) {
                        report.fail(format!(
                            "{} seed {}: a repeat of one seed changed cycles, instret or raster",
                            class.name, d.seed
                        ));
                    }
                }
                Ok(_) => {}
            }
        }
    }
}

/// Σ modelled execution time ÷ Σ simulated ticks, in milliseconds.
fn sim_ms_per_tick(results: &[&JobResult]) -> f64 {
    let exec: f64 = results.iter().map(|r| r.exec_s).sum();
    let ticks: f64 = results.iter().map(|r| r.ticks as f64).sum();
    stats::ratio(exec * 1e3, ticks)
}

/// The untraced run: cold set-ups, then one timed window.
pub fn measure(mut w: Closed, seconds: u64, report: &mut Report) {
    let setups: Vec<f64> = (0..SETUP_REPEATS).map(|_| w.setup()).collect();
    let mut next_job = 0;
    let (done, elapsed) = w.window(Duration::from_secs(seconds), &mut next_job);
    w.check(&done, report);
    let ok: Vec<&JobResult> = done
        .iter()
        .filter_map(|d| d.outcome.result.as_ref().ok())
        .collect();
    report.metric("setup_s", stats::median(&setups), "s", setups.len());
    report.metric("runs_per_s", ok.len() as f64 / elapsed, "runs/s", ok.len());
    report.metric("sim_ms_per_tick", sim_ms_per_tick(&ok), "sim_ms", ok.len());
}

/// The traced run: half the time untraced (the base of `trace.overhead`),
/// half traced, then, outside the timed window, a cold replay of one
/// traced job per class and the same jobs put through the service. The
/// replay and the service must reproduce the template run, and the
/// host-parallel class is replayed on the sequential scheduler too, which
/// must agree with it.
pub fn traced(mut w: Closed, seconds: u64, report: &mut Report) -> Layers {
    let half = Duration::from_secs_f64(seconds as f64 / 2.0);
    trace::set_enabled(true);
    w.setup();
    trace::set_enabled(false);
    let mut next_job = 0;
    let (base, base_s) = w.window(half, &mut next_job);
    let before = template::cache_stats();
    trace::set_enabled(true);
    let (done, done_s) = w.window(half, &mut next_job);
    let after = template::cache_stats();
    let mut layers = Layers {
        cache: (after.hits - before.hits, after.misses - before.misses),
        overhead: (done_s / done.len() as f64) / (base_s / base.len() as f64),
        ..Layers::default()
    };
    let mut service_jobs = Vec::new();
    for (index, class) in w.classes.iter().enumerate() {
        probe_instantiate(class, job_seed(w.run_seed, 999));
        let Some(job) = done.iter().find(|d| d.class == index) else {
            continue;
        };
        let Ok(expected) = &job.outcome.result else {
            continue;
        };
        service_jobs.push((
            ServiceJob {
                scenario: class.scenario.name,
                seed: job.seed,
                label: SchedSpec::label_of(class.sched),
            },
            expected.clone(),
        ));
        report.attempted += 1;
        let replay = match cold_replay(class, job.seed, class.sched) {
            Ok(r) => r,
            Err(e) => {
                report.fail(e);
                continue;
            }
        };
        if !replay.result.same_run(expected) {
            report.fail(format!(
                "{} seed {}: the cold replay differs from the template run",
                class.name, job.seed
            ));
        }
        if let SchedMode::RelaxedParallel {
            quantum, timing, ..
        } = class.sched
        {
            report.attempted += 1;
            match cold_replay(class, job.seed, SchedMode::Relaxed { quantum, timing }) {
                Err(e) => report.fail(e),
                Ok(seq) => {
                    if !seq.result.same_run(&replay.result) {
                        report.fail(format!(
                            "{} seed {}: Relaxed and RelaxedParallel replays differ",
                            class.name, job.seed
                        ));
                    }
                    layers.par_speedup = Some(seq.run_s / replay.run_s);
                }
            }
        }
        layers.replays.push(replay);
    }
    match service::probe(&service_jobs, report) {
        Ok(serve) => layers.serve = serve,
        Err(e) => report.invalid(e),
    }
    trace::set_enabled(false);
    w.check(&base, report);
    w.check(&done, report);
    for d in &done {
        match &d.outcome.result {
            Ok(r) => {
                let exact = w.classes[d.class].sched == SchedMode::Exact;
                layers.results.push((exact, r.clone()));
                layers.supervised.push((d.outcome.attempts, None));
            }
            Err(e) => layers.supervised.push((e.attempts, Some(e.kind))),
        }
    }
    layers.spans = trace::take();
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use izhi_programs::scenario;

    /// The class and seed of every job in the first `rounds` rounds.
    fn plan(name: &str, seed: u64, rounds: usize) -> Vec<(usize, u32)> {
        let mut w = Closed::named(name, seed);
        let mut jobs = Vec::new();
        for _ in 0..rounds {
            for class in 0..w.classes.len() {
                jobs.push((class, w.next_seed(class)));
            }
        }
        jobs
    }

    #[test]
    fn the_job_plan_is_deterministic_for_a_seed() {
        for name in crate::WORKLOADS {
            assert_eq!(plan(name, 7, 50), plan(name, 7, 50));
            assert_ne!(plan(name, 7, 50), plan(name, 8, 50));
        }
    }

    #[test]
    fn relaxed_sweep_never_reuses_a_template_build_seed() {
        // Its templates are built at the registry defaults, so at each
        // scenario's default seed.
        for sc in scenario::registry() {
            let default = sc
                .schema
                .iter()
                .find(|p| p.name == "seed")
                .expect("seed in schema");
            if let Ok(d) = default.default.parse::<u32>() {
                assert!(d < SEED_BASE, "{}: default seed {d}", sc.name);
            }
        }
        for seed in [0, 1, 42, 99_999, 100_000, u64::MAX] {
            let w = Closed::named("relaxed_sweep", seed);
            assert!(w.classes.iter().all(|c| c.params.seed.is_none()));
            let jobs = plan("relaxed_sweep", seed, 1000);
            for class in 0..w.classes.len() {
                let seeds: BTreeSet<u32> =
                    jobs.iter().filter(|j| j.0 == class).map(|j| j.1).collect();
                assert_eq!(seeds.len(), 1000, "a seed repeats within a run");
                assert!(seeds.iter().all(|&s| s >= SEED_BASE));
            }
        }
    }
}
