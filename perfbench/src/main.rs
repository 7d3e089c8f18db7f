//! The repository benchmark. Two closed-loop workloads run in-process
//! through the public APIs of `izhi_programs`, `izhi_sim` and
//! `izhi_bench`; every job takes the path the battery runner and the
//! service workers take: `Scenario` → `template::lookup` →
//! `RunTemplate::instantiate` → `supervise::run_supervised`.
//!
//! * `paper_exact`: registry-default `net8020` (Table V) and `sudoku`
//!   (Table VI) on the exact scheduler, alternating, one seed per run.
//! * `relaxed_sweep`: registry-default `net8020` on the relaxed scheduler
//!   and `net8020_sharded` on the host-parallel one, alternating, a fresh
//!   seed per job.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_exact --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` runs the
//! workload again with spans around each layer call, puts one job per
//! class through an in-process scenario service, reports the per-layer
//! metrics and writes the spans to `perfbench/out/`. Every figure is
//! printed with its unit and sample count; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A failed job or check exits with status 1. Bad arguments, or
//! any `IZHI_*` variable in the environment (each changes the program
//! under test), exit with status 2 before anything runs.

mod closed;
mod job;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use izhi_bench::supervise::RunErrorKind;

use crate::job::{JobResult, Model, Replay, KINDS};
use crate::service::ServeLayers;

/// The workloads `--workload` accepts.
const WORKLOADS: [&str; 2] = ["paper_exact", "relaxed_sweep"];

/// The result line of an untraced run.
const END_TO_END: [&str; 4] = ["setup_s", "runs_per_s", "sim_ms_per_tick", "peak_rss_mb"];

/// The result line of a traced run.
const PER_LAYER: [&str; 34] = [
    "scenario.build_ms",
    "scenario.verify_ms",
    "engine.prepare_ms",
    "engine.instret",
    "template.lookup_ms",
    "template.hit_ratio",
    "template.instantiate_same_ms",
    "template.instantiate_reseed_ms",
    "template.run_ms",
    "sim.run_ms",
    "sim.minstr_per_s",
    "sim.kernel_coverage",
    "sim.par_speedup",
    "model.cpi",
    "model.cpi_hazard",
    "model.cpi_flush",
    "model.cpi_mem",
    "model.cpi_div",
    "model.dcache_miss_rate",
    "supervise.attempts",
    "supervise.panic",
    "supervise.guest_trap",
    "supervise.cycle_budget",
    "supervise.wall_clock_timeout",
    "supervise.verify_failed",
    "serve.submit_ms",
    "serve.queue_wait_ms",
    "serve.exec_ms",
    "serve.outside_exec_ms",
    "serve.poll_ms",
    "serve.polls_per_job",
    "serve.rejected",
    "failed_frac",
    "trace.overhead",
];

/// Cold set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

const USAGE: &str =
    "usage: perfbench --workload paper_exact|relaxed_sweep --seed N --seconds S [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |want: &str| format!("{flag} {value}: expected {want}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad("one of paper_exact, relaxed_sweep"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s = value.parse::<u64>().ok().filter(|s| (1..=3600).contains(s));
                seconds = Some(s.ok_or_else(|| bad("whole seconds in 1..=3600"))?);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// One printed figure.
struct Line {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    /// Part of the JSON result line.
    result: bool,
}

/// A run's figures, job counts and problems.
pub struct Report {
    lines: Vec<Line>,
    /// Jobs and checks attempted.
    pub attempted: u64,
    /// Jobs and checks that failed.
    pub failed: u64,
    problems: Vec<String>,
}

impl Report {
    /// A metric of the result line, with the number of samples behind it.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.lines.push(Line {
            name: name.to_string(),
            value,
            unit,
            samples,
            result: true,
        });
    }

    /// A printed figure outside the result line.
    pub fn info(&mut self, name: String, value: f64, unit: &'static str, samples: usize) {
        self.lines.push(Line {
            name,
            value,
            unit,
            samples,
            result: false,
        });
    }

    /// One failed job or check.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// A run that cannot stand although no job failed.
    pub fn invalid(&mut self, problem: String) {
        self.problems.push(problem);
    }

    /// Print every figure, the problems, and the result line with the
    /// `expected` metrics; the exit status says whether the run was
    /// correct.
    fn finish(mut self, expected: &[&str]) -> ExitCode {
        for name in expected {
            if !self.lines.iter().any(|l| l.result && l.name == *name) {
                self.problems
                    .push(format!("metric {name} was not measured"));
            }
        }
        for l in &self.lines {
            if l.result && !expected.contains(&l.name.as_str()) {
                self.problems
                    .push(format!("metric {} is not declared", l.name));
            }
            if !l.value.is_finite() {
                self.problems.push(format!("{} is not a number", l.name));
            }
        }
        for l in &self.lines {
            println!(
                "  {:<48} {:>16.6} {:<10} n={}",
                l.name, l.value, l.unit, l.samples
            );
        }
        for p in self.problems.iter().take(20) {
            println!("FAILED: {p}");
        }
        if self.problems.len() > 20 {
            println!("FAILED: and {} more", self.problems.len() - 20);
        }
        let metrics: Vec<String> = expected
            .iter()
            .filter_map(|name| {
                self.lines
                    .iter()
                    .find(|l| l.result && l.name == *name && l.value.is_finite())
            })
            .map(|l| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    l.name, l.value, l.unit
                )
            })
            .collect();
        let correct = self.problems.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    }
}

fn put_mean(report: &mut Report, name: &str, samples: &[f64], unit: &'static str) {
    report.metric(name, stats::mean(samples), unit, samples.len());
}

/// What a traced run's per-layer metrics are computed from. A layer the
/// workload never entered reports zero with a sample count of zero.
#[derive(Default)]
pub struct Layers {
    /// Every span of the traced run.
    pub spans: Vec<trace::Span>,
    /// Verified results of the traced jobs, flagged when they ran on the
    /// exact scheduler.
    pub results: Vec<(bool, JobResult)>,
    /// Supervised attempts of every traced job, with the failure class of
    /// the jobs that failed.
    pub supervised: Vec<(u32, Option<RunErrorKind>)>,
    /// Cold replays, one per job class.
    pub replays: Vec<Replay>,
    /// Host time of the sharded job on `Relaxed` over `RelaxedParallel`.
    pub par_speedup: Option<f64>,
    /// Template-cache hits and misses over the traced window.
    pub cache: (u64, u64),
    /// Host time per job, traced over untraced.
    pub overhead: f64,
    /// Client-side figures of one job per class put through the service.
    pub serve: ServeLayers,
}

impl Layers {
    fn put(&self, report: &mut Report) {
        let job_ms = |name: &str| trace::durations_ms(&self.spans, name, |s| s.job.is_some());
        let replays = &self.replays;
        let per_replay = |f: fn(&Replay) -> f64| replays.iter().map(f).collect::<Vec<f64>>();
        put_mean(
            report,
            "scenario.build_ms",
            &per_replay(|r| r.build_s * 1e3),
            "ms",
        );
        put_mean(
            report,
            "scenario.verify_ms",
            &job_ms("scenario.verify"),
            "ms",
        );
        put_mean(
            report,
            "engine.prepare_ms",
            &per_replay(|r| r.prepare_s * 1e3),
            "ms",
        );
        let instret: Vec<f64> = self.results.iter().map(|(_, r)| r.instret as f64).collect();
        put_mean(report, "engine.instret", &instret, "count");
        // Set-up lookups are the cold builds; lookups inside jobs hit.
        let cold = trace::durations_ms(&self.spans, "template.lookup", |s| s.job.is_none());
        put_mean(report, "template.lookup_ms", &cold, "ms");
        let (hits, misses) = self.cache;
        let lookups = hits + misses;
        report.metric(
            "template.hit_ratio",
            stats::ratio(hits as f64, lookups as f64),
            "ratio",
            lookups as usize,
        );
        // Jobs take one of the two paths; a probe per class times both.
        let all_ms = |name: &str| trace::durations_ms(&self.spans, name, |_| true);
        put_mean(
            report,
            "template.instantiate_same_ms",
            &all_ms("template.instantiate_same"),
            "ms",
        );
        put_mean(
            report,
            "template.instantiate_reseed_ms",
            &all_ms("template.instantiate_reseed"),
            "ms",
        );
        put_mean(report, "template.run_ms", &job_ms("template.run"), "ms");
        put_mean(report, "sim.run_ms", &per_replay(|r| r.run_s * 1e3), "ms");
        let instret: f64 = replays.iter().map(|r| r.result.instret as f64).sum();
        let run_s: f64 = replays.iter().map(|r| r.run_s).sum();
        let kernel: f64 = replays.iter().map(|r| r.kernel_instret as f64).sum();
        report.metric(
            "sim.minstr_per_s",
            stats::ratio(instret / 1e6, run_s),
            "Minstr/s",
            replays.len(),
        );
        report.metric(
            "sim.kernel_coverage",
            stats::ratio(kernel, instret),
            "ratio",
            replays.len(),
        );
        report.metric(
            "sim.par_speedup",
            self.par_speedup.unwrap_or(0.0),
            "ratio",
            usize::from(self.par_speedup.is_some()),
        );
        let mut model = Model::default();
        let mut exact = 0;
        for (_, r) in self.results.iter().filter(|(is_exact, _)| *is_exact) {
            model.add(&r.model);
            exact += 1;
        }
        let per_instr = |c: u64| stats::ratio(c as f64, model.instret as f64);
        for (name, value) in [
            ("model.cpi", per_instr(model.cycles)),
            ("model.cpi_hazard", per_instr(model.hazard)),
            ("model.cpi_flush", per_instr(model.flush)),
            ("model.cpi_mem", per_instr(model.mem)),
            ("model.cpi_div", per_instr(model.div)),
        ] {
            report.metric(name, value, "cyc/instr", exact);
        }
        let accesses = (model.dcache_hits + model.dcache_misses) as f64;
        report.metric(
            "model.dcache_miss_rate",
            stats::ratio(model.dcache_misses as f64, accesses),
            "ratio",
            exact,
        );
        let attempts: Vec<f64> = self.supervised.iter().map(|(a, _)| *a as f64).collect();
        put_mean(report, "supervise.attempts", &attempts, "count");
        for kind in KINDS {
            let n = self
                .supervised
                .iter()
                .filter(|(_, k)| *k == Some(kind))
                .count();
            let name = format!("supervise.{}", kind.label().replace('-', "_"));
            report.metric(&name, n as f64, "count", self.supervised.len());
        }
        let s = &self.serve;
        put_mean(report, "serve.submit_ms", &s.submit_ms, "ms");
        put_mean(report, "serve.queue_wait_ms", &s.queue_wait_ms, "ms");
        put_mean(report, "serve.exec_ms", &s.exec_ms, "ms");
        put_mean(report, "serve.outside_exec_ms", &s.outside_exec_ms, "ms");
        report.metric(
            "serve.poll_ms",
            stats::ratio(s.poll_s * 1e3, s.polls as f64),
            "ms",
            s.polls as usize,
        );
        report.metric(
            "serve.polls_per_job",
            stats::ratio(s.polls as f64, s.polled_jobs as f64),
            "count",
            s.polled_jobs,
        );
        report.metric(
            "serve.rejected",
            s.rejected as f64,
            "count",
            s.submit_ms.len(),
        );
        report.metric("trace.overhead", self.overhead, "ratio", 2);
        for r in replays {
            report.info(
                format!("scenario.build_ms [{}]", r.class),
                r.build_s * 1e3,
                "ms",
                1,
            );
        }
        // The layer-by-layer split: self time summed per span name.
        for (name, (count, own)) in trace::self_time_by_name(&self.spans) {
            report.info(
                format!("self time [{name}]"),
                own.as_secs_f64() * 1e3,
                "ms",
                count,
            );
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("IZHI_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: every IZHI_* knob changes the program under test",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host_threads = izhi_sim::resolve_host_threads(0);
    let (seed, seconds) = (args.seed, args.seconds);
    println!(
        "perfbench {} seed={seed} seconds={seconds} trace={} nproc={nproc} host_threads={host_threads}",
        args.workload,
        u8::from(args.trace)
    );
    let origin = Instant::now();
    let mut report = Report {
        lines: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let workload = closed::Closed::named(&args.workload, seed);
    let layers = if args.trace {
        Some(closed::traced(workload, seconds, &mut report))
    } else {
        closed::measure(workload, seconds, &mut report);
        None
    };
    match peak_rss_mb() {
        Ok(mb) if args.trace => report.info("peak_rss_mb".to_string(), mb, "MB", 1),
        Ok(mb) => report.metric("peak_rss_mb", mb, "MB", 1),
        Err(e) => report.invalid(e),
    }
    let failed_frac = stats::ratio(report.failed as f64, report.attempted as f64);
    let attempted = report.attempted as usize;
    match layers {
        None => report.info("failed_frac".to_string(), failed_frac, "ratio", attempted),
        Some(layers) => {
            layers.put(&mut report);
            report.metric("failed_frac", failed_frac, "ratio", attempted);
            let path = PathBuf::from(format!(
                "perfbench/out/trace-{}-{seed}.jsonl",
                args.workload
            ));
            let header = format!(
                "{{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \
                 \"nproc\": {nproc}, \"host_threads\": {host_threads}}}",
                args.workload
            );
            match trace::write_jsonl(&path, &header, &layers.spans, origin) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => report.invalid(format!("writing {}: {e}", path.display())),
            }
        }
    }
    report.finish(if args.trace { &PER_LAYER } else { &END_TO_END })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_names() {
        let spec = include_str!("../../BENCHMARK.json");
        let names = WORKLOADS.iter().chain(&END_TO_END).chain(&PER_LAYER);
        assert_eq!(spec.matches("\"name\":").count(), names.clone().count());
        for name in names {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "{name} is missing from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload paper_exact --seed 1 --seconds 5").is_ok());
        assert!(parse("--workload relaxed_sweep --seed 1 --seconds 5 --trace 1").is_ok());
        assert!(parse("--workload service_mix --seed 1 --seconds 5").is_err());
        assert!(parse("--workload paper_exact --seed 1 --seconds 0").is_err());
        assert!(parse("--workload paper_exact --seed 1 --seconds 5 --trace 2").is_err());
        assert!(parse("--workload paper_exact --seed 1 --seconds 5 --rate 4").is_err());
        assert!(parse("--workload paper_exact --seconds 5").is_err());
    }
}
