//! The CI perf-regression gate behind `perf_baseline --check`.
//!
//! Lives in the library (rather than the binary) so the failure modes are
//! unit-testable — in particular the one that must never pass silently:
//! a baseline entry that is **missing** from the fresh measurement. A
//! renamed or dropped row would otherwise disable its own gate while CI
//! stayed green.

/// Extract the `"speedup_vs_seed"` object of a baseline JSON written by
/// `perf_baseline` (hand-rolled: the workspace builds offline, without
/// serde). Unparseable text yields an empty list, which the gate treats
/// as a failing baseline.
pub fn parse_speedups(text: &str) -> Vec<(String, f64)> {
    let Some(idx) = text.find("\"speedup_vs_seed\"") else {
        return Vec::new();
    };
    let rest = &text[idx..];
    let Some(open) = rest.find('{') else {
        return Vec::new();
    };
    let Some(close) = rest[open..].find('}') else {
        return Vec::new();
    };
    rest[open + 1..open + close]
        .split(',')
        .filter_map(|entry| {
            let (k, v) = entry.split_once(':')?;
            let k = k.trim().trim_matches('"');
            let v: f64 = v.trim().parse().ok()?;
            (!k.is_empty()).then(|| (k.to_string(), v))
        })
        .collect()
}

/// Why the gate failed.
#[derive(Debug, Clone, PartialEq)]
pub enum GateFailure {
    /// The baseline text has no gated (single-core) speedup entries at
    /// all — an empty gate must fail, not vacuously pass.
    NoGatedEntries,
    /// A baseline entry does not exist in the fresh measurement (renamed
    /// or dropped row). This must error: silently skipping it would
    /// disable the entry's own regression gate.
    MissingEntry(String),
    /// The fresh speedup fell below `min_ratio` × its baseline value.
    Regressed {
        /// Gated entry name.
        name: String,
        /// Fresh measurement.
        fresh: f64,
        /// Committed baseline value.
        baseline: f64,
    },
    /// A battery row present in the committed baseline failed its
    /// scenario verification hook in the fresh run.
    Unverified(String),
    /// A scenario's estimated-vs-exact cycle ratio left the allowed band.
    AccuracyOutOfBand {
        /// Scenario name.
        name: String,
        /// Fresh estimated/exact cycle ratio.
        ratio: f64,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// A service guarantee (health, backpressure hinting, failure
    /// isolation, forward progress) did not hold in the fresh burst.
    ServiceGuarantee(String),
    /// The template-cached battery throughput fell below the required
    /// multiple of the cold-build throughput (or was not measurable).
    TemplateSpeedupBelowFloor {
        /// Fresh cached/cold runs-per-second ratio.
        speedup: f64,
        /// Required minimum ratio.
        floor: f64,
    },
    /// A headline single-core speedup fell below the absolute floor
    /// (independent of the committed baseline — the floor is a same-host
    /// seed-vs-live ratio, so it is not a runner speed lottery).
    BelowAbsoluteFloor {
        /// Gated entry name.
        name: String,
        /// Fresh speedup.
        fresh: f64,
        /// Required minimum speedup.
        floor: f64,
    },
    /// The assembler-relaxation instret reduction on the gated workload
    /// fell below the required floor.
    InstretReductionBelowFloor {
        /// Gated entry name.
        name: String,
        /// Fresh fractional reduction (`1 - relaxed/unrelaxed`).
        fresh: f64,
        /// Required minimum fraction.
        floor: f64,
    },
    /// A kernel-on relaxed row failed to beat its kernel-off twin by the
    /// required multiple (both speedups are vs the same seed run, so the
    /// ratio is a pure kernel-on/off wall-time ratio — host-stable).
    KernelSpeedupBelowFloor {
        /// Kernel-on entry name (the `*_relaxed` row).
        name: String,
        /// Fresh kernel-on speedup vs seed.
        on: f64,
        /// Fresh kernel-off speedup vs seed.
        off: f64,
        /// Required minimum on/off ratio.
        floor: f64,
    },
}

impl core::fmt::Display for GateFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GateFailure::NoGatedEntries => {
                write!(f, "baseline has no single-core speedup entries")
            }
            GateFailure::MissingEntry(name) => {
                write!(f, "{name}: MISSING from fresh measurement")
            }
            GateFailure::Regressed {
                name,
                fresh,
                baseline,
            } => write!(
                f,
                "{name}: {fresh:.3}x REGRESSED vs baseline {baseline:.3}x"
            ),
            GateFailure::Unverified(key) => {
                write!(f, "{key}: battery row UNVERIFIED in fresh run")
            }
            GateFailure::AccuracyOutOfBand {
                name,
                ratio,
                lo,
                hi,
            } => write!(
                f,
                "{name}: estimated/exact cycle ratio {ratio:.3} outside [{lo:.2}, {hi:.2}]"
            ),
            GateFailure::ServiceGuarantee(what) => {
                write!(f, "service: {what}")
            }
            GateFailure::TemplateSpeedupBelowFloor { speedup, floor } => write!(
                f,
                "battery_throughput: cached/cold {speedup:.3}x BELOW the {floor:.2}x floor"
            ),
            GateFailure::BelowAbsoluteFloor { name, fresh, floor } => write!(
                f,
                "{name}: {fresh:.3}x BELOW the absolute {floor:.1}x single-core floor"
            ),
            GateFailure::InstretReductionBelowFloor { name, fresh, floor } => write!(
                f,
                "{name}: instret reduction {:.2}% BELOW the {:.1}% floor",
                fresh * 100.0,
                floor * 100.0
            ),
            GateFailure::KernelSpeedupBelowFloor {
                name,
                on,
                off,
                floor,
            } => write!(
                f,
                "{name}: kernel-on {on:.3}x vs kernel-off {off:.3}x — ratio {:.3} BELOW the {floor:.2}x kernel floor",
                on / off
            ),
        }
    }
}

/// One baseline entry that was found in the fresh measurement (reporting
/// data for the caller — the gate itself never prints).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedEntry {
    /// Gated entry name.
    pub name: String,
    /// Fresh measurement.
    pub fresh: f64,
    /// Committed baseline value.
    pub baseline: f64,
}

impl CheckedEntry {
    /// Fresh / baseline.
    pub fn ratio(&self) -> f64 {
        self.fresh / self.baseline
    }
}

/// Everything the gate determined; presentation is the caller's job.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GateReport {
    /// Entries present in both baseline and fresh run (pass or fail).
    pub checked: Vec<CheckedEntry>,
    /// All failures; empty means the gate passed.
    pub failures: Vec<GateFailure>,
}

impl GateReport {
    /// Whether the gate passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Gate the fresh `speedup_vs_seed` entries against a committed baseline
/// text. Every **single-core** baseline entry must be present in `fresh`
/// at `min_ratio` × its value or better; multi-core / relaxed entries are
/// informational only (they depend on host parallel behaviour CI runners
/// do not promise).
pub fn check_gate(fresh: &[(String, f64)], baseline_text: &str, min_ratio: f64) -> GateReport {
    let baseline = parse_speedups(baseline_text);
    let gated: Vec<_> = baseline
        .iter()
        .filter(|(name, _)| name.contains("_1core"))
        .collect();
    if gated.is_empty() {
        return GateReport {
            checked: Vec::new(),
            failures: vec![GateFailure::NoGatedEntries],
        };
    }
    let mut report = GateReport::default();
    for (name, base) in gated {
        match fresh.iter().find(|(n, _)| n == name) {
            None => report
                .failures
                .push(GateFailure::MissingEntry(name.clone())),
            Some((_, v)) => {
                let entry = CheckedEntry {
                    name: name.clone(),
                    fresh: *v,
                    baseline: *base,
                };
                if entry.ratio() < min_ratio {
                    report.failures.push(GateFailure::Regressed {
                        name: name.clone(),
                        fresh: *v,
                        baseline: *base,
                    });
                }
                report.checked.push(entry);
            }
        }
    }
    report
}

/// Absolute floor on the headline single-core speedup-vs-seed rows
/// (entries named `*_1core`, excluding the `*_norelax` / `*_nosb`
/// diagnostic rows). The superblock interpreter + relaxation pass land
/// the `net8020` quick row at ~2.2-2.3x on this host; the floor sits
/// under that with margin for runner-scheduling noise — the interleaved
/// same-process measurement makes the *ratio* host-stable, but not
/// noise-free. (The original 2.8x target for this stack was not reached:
/// the exact-path interpreter is dispatch-bound after the superblock
/// work, see the README's interpreter-core notes.)
pub const SINGLE_CORE_FLOOR: f64 = 2.0;

/// Absolute floor on the relaxed single-core quick row
/// (`net8020_quick_1core_relaxed`: `SchedMode::Relaxed`, kernel offload
/// on — the configuration relaxed sweeps actually ship). The native
/// closed-form kernel tier lands it at ~3.5x+ on this host; the floor
/// sits below that with runner-noise margin. This is the 2.8x target the
/// exact path (see [`SINGLE_CORE_FLOOR`]) could not reach.
pub const RELAXED_SINGLE_CORE_FLOOR: f64 = 2.8;

/// Required wall-time multiple of every kernel-on relaxed row over its
/// kernel-off twin (`*_relaxed` vs `*_relaxed_nokernel`). Both rows'
/// speedups are measured against the same interleaved seed run, so the
/// ratio cancels the seed and is a pure same-host kernel-on/off ratio.
pub const KERNEL_SPEEDUP_FLOOR: f64 = 1.25;

/// Required fractional instret reduction (`1 - relaxed/unrelaxed`) from
/// the assembler relaxation + peephole pass on the gated workload
/// (`net8020_quick_1core`). The reduction is a deterministic property of
/// the emitted code — no host noise — so the floor can sit directly
/// under the measured 3.05%.
pub const INSTRET_REDUCTION_FLOOR: f64 = 0.03;

/// Gate the headline single-core speedups against the absolute
/// [`SINGLE_CORE_FLOOR`]-style floor: every fresh `*_1core` entry that is
/// not a `*_norelax` / `*_nosb` / `*_nokernel` diagnostic row must reach
/// `floor` (the `*_relaxed_nokernel` rows exist to price the kernel tier,
/// not to clear headline floors — [`check_kernel_gate`] owns them). No
/// baseline is consulted — the floor is absolute — but an empty gated set
/// fails, mirroring the other gates' empty rule (the relative
/// [`check_gate`] separately errors if a baseline row went missing).
pub fn check_floor_gate(fresh: &[(String, f64)], floor: f64) -> GateReport {
    let gated: Vec<_> = fresh
        .iter()
        .filter(|(name, _)| {
            name.contains("_1core")
                && !name.ends_with("_norelax")
                && !name.ends_with("_nosb")
                && !name.ends_with("_nokernel")
        })
        .collect();
    if gated.is_empty() {
        return GateReport {
            checked: Vec::new(),
            failures: vec![GateFailure::NoGatedEntries],
        };
    }
    let mut report = GateReport::default();
    for (name, v) in gated {
        if *v < floor {
            report.failures.push(GateFailure::BelowAbsoluteFloor {
                name: name.clone(),
                fresh: *v,
                floor,
            });
        }
        report.checked.push(CheckedEntry {
            name: name.clone(),
            fresh: *v,
            baseline: floor,
        });
    }
    report
}

/// Gate the kernel-offload rows of a fresh measurement. Two absolute,
/// same-host checks (no committed baseline is consulted):
///
/// * every `*_relaxed` entry must have a `*_relaxed_nokernel` twin (a
///   missing twin is an error — it would silently disable the ratio
///   check) and beat it by at least `kernel_floor` — both speedups are
///   vs the same interleaved seed run, so the ratio cancels the seed and
///   is a pure kernel-on/off wall-time ratio;
/// * the `net8020_quick_1core_relaxed` row must reach `relaxed_floor`
///   outright, and must be present at all.
///
/// Each checked entry reports the on/off ratio as `fresh` against
/// `kernel_floor` as `baseline`.
pub fn check_kernel_gate(
    fresh: &[(String, f64)],
    relaxed_floor: f64,
    kernel_floor: f64,
) -> GateReport {
    const GATED_RELAXED_ROW: &str = "net8020_quick_1core_relaxed";
    let on_rows: Vec<_> = fresh
        .iter()
        .filter(|(name, _)| name.ends_with("_relaxed"))
        .collect();
    if on_rows.is_empty() {
        return GateReport {
            checked: Vec::new(),
            failures: vec![GateFailure::NoGatedEntries],
        };
    }
    let mut report = GateReport::default();
    if !on_rows.iter().any(|(name, _)| name == GATED_RELAXED_ROW) {
        report
            .failures
            .push(GateFailure::MissingEntry(GATED_RELAXED_ROW.to_string()));
    }
    for (name, on) in on_rows {
        match fresh.iter().find(|(n, _)| *n == format!("{name}_nokernel")) {
            None => report
                .failures
                .push(GateFailure::MissingEntry(format!("{name}_nokernel"))),
            Some((_, off)) => {
                if on / off < kernel_floor {
                    report.failures.push(GateFailure::KernelSpeedupBelowFloor {
                        name: name.clone(),
                        on: *on,
                        off: *off,
                        floor: kernel_floor,
                    });
                }
                report.checked.push(CheckedEntry {
                    name: name.clone(),
                    fresh: on / off,
                    baseline: kernel_floor,
                });
            }
        }
        if name == GATED_RELAXED_ROW && *on < relaxed_floor {
            report.failures.push(GateFailure::BelowAbsoluteFloor {
                name: name.clone(),
                fresh: *on,
                floor: relaxed_floor,
            });
        }
    }
    report
}

/// Whether a baseline file carries an `"instret_reduction"` section at
/// all. Old baselines (schema <= v9) legitimately predate the relaxation
/// pass; the caller skips this gate for them instead of failing on a
/// section that could not exist.
pub fn has_instret_reduction(text: &str) -> bool {
    text.contains("\"instret_reduction\"")
}

/// Extract the `"instret_reduction"` object of a baseline JSON: per
/// workload, the fractional instret saving of the relaxation pass.
/// Unparseable or sectionless text yields an empty list.
pub fn parse_instret_reduction(text: &str) -> Vec<(String, f64)> {
    let Some(idx) = text.find("\"instret_reduction\"") else {
        return Vec::new();
    };
    let rest = &text[idx + "\"instret_reduction\"".len()..];
    let Some(open) = rest.find('{') else {
        return Vec::new();
    };
    let Some(close) = rest[open..].find('}') else {
        return Vec::new();
    };
    rest[open + 1..open + close]
        .split(',')
        .filter_map(|entry| {
            let (k, v) = entry.split_once(':')?;
            let k = k.trim().trim_matches('"');
            let v: f64 = v.trim().parse().ok()?;
            (!k.is_empty()).then(|| (k.to_string(), v))
        })
        .collect()
}

/// Gate the fresh relaxation instret reductions against a committed
/// baseline that carries an `"instret_reduction"` section: every baseline
/// entry must be present in the fresh run (a dropped row errors rather
/// than silently disabling its own gate), and the `net8020_quick_1core`
/// entry must reach `floor`. Other entries (e.g. the paper shape, whose
/// integration loops relax less) are presence-checked but informational.
pub fn check_instret_gate(fresh: &[(String, f64)], baseline_text: &str, floor: f64) -> GateReport {
    let baseline = parse_instret_reduction(baseline_text);
    if baseline.is_empty() {
        return GateReport {
            checked: Vec::new(),
            failures: vec![GateFailure::NoGatedEntries],
        };
    }
    let mut report = GateReport::default();
    for (name, base) in baseline {
        match fresh.iter().find(|(n, _)| *n == name) {
            None => report.failures.push(GateFailure::MissingEntry(name)),
            Some((_, v)) => {
                if name == "net8020_quick_1core" && *v < floor {
                    report
                        .failures
                        .push(GateFailure::InstretReductionBelowFloor {
                            name: name.clone(),
                            fresh: *v,
                            floor,
                        });
                }
                report.checked.push(CheckedEntry {
                    name,
                    fresh: *v,
                    baseline: base,
                });
            }
        }
    }
    report
}

/// Extract the battery-row gate keys of a baseline JSON: the `"key"`
/// fields of the `"battery"` array. Unparseable or battery-less text
/// yields an empty list.
pub fn parse_battery_keys(text: &str) -> Vec<String> {
    let Some(idx) = text.find("\"battery\"") else {
        return Vec::new();
    };
    let rest = &text[idx..];
    let Some(open) = rest.find('[') else {
        return Vec::new();
    };
    let Some(close) = rest[open..].find(']') else {
        return Vec::new();
    };
    let mut keys = Vec::new();
    let mut body = &rest[open + 1..open + close];
    while let Some(k) = body.find("\"key\"") {
        let tail = &body[k + 5..];
        let Some(q0) = tail.find('"') else { break };
        let Some(q1) = tail[q0 + 1..].find('"') else {
            break;
        };
        keys.push(tail[q0 + 1..q0 + 1 + q1].to_string());
        body = &tail[q0 + 1 + q1..];
    }
    keys
}

/// Gate the fresh battery rows — `(key, verified)` pairs — against a
/// committed baseline: every baseline battery key must be present in the
/// fresh run (a renamed or dropped row errors rather than silently
/// disabling its own gate) *and* verified. A baseline without battery
/// keys gates nothing and fails, mirroring the speedup gate's
/// empty-baseline rule.
pub fn check_battery_gate(fresh: &[(String, bool)], baseline_text: &str) -> GateReport {
    let keys = parse_battery_keys(baseline_text);
    if keys.is_empty() {
        return GateReport {
            checked: Vec::new(),
            failures: vec![GateFailure::NoGatedEntries],
        };
    }
    let mut report = GateReport::default();
    for key in keys {
        match fresh.iter().find(|(k, _)| *k == key) {
            None => report.failures.push(GateFailure::MissingEntry(key)),
            Some((_, false)) => report.failures.push(GateFailure::Unverified(key)),
            Some((_, true)) => report.checked.push(CheckedEntry {
                name: key,
                fresh: 1.0,
                baseline: 1.0,
            }),
        }
    }
    report
}

/// Allowed band for the estimated-vs-exact cycle ratio: deliberately
/// generous for now (the cost table is a first-order static collapse of a
/// dynamic model); tighten as the table is calibrated. The band is
/// absolute — centred on 1.0 — because the ratio is a *model-accuracy*
/// statement, not a host-speed measurement.
pub const ACCURACY_LO: f64 = 0.5;
/// Upper bound of the estimated-accuracy band (see [`ACCURACY_LO`]).
pub const ACCURACY_HI: f64 = 2.0;
/// Relative factor for scenarios whose *committed* ratio already sits
/// outside the absolute band. Structurally possible for barrier-heavy
/// scale-out shapes (e.g. a 16-core sharded net): the exact clock is
/// dominated by simulated barrier spin-wait, which the relaxed
/// schedulers deschedule — so their estimated clock legitimately
/// undercounts. The absolute band would reject every fresh run of such
/// a scenario unconditionally; instead the fresh ratio is held to
/// within this factor of the committed value (both directions), which
/// still catches drift.
pub const ACCURACY_REL: f64 = 2.0;

/// Whether a baseline file carries an `"estimated_accuracy"` section at
/// all. Old baselines (schema <= v5) legitimately predate the estimated
/// timing model; the caller skips the accuracy gate for them instead of
/// failing on a section that could not exist.
pub fn has_estimated_accuracy(text: &str) -> bool {
    text.contains("\"estimated_accuracy\"")
}

/// Extract the `"estimated_accuracy"` object of a baseline JSON: per
/// scenario, the estimated-vs-exact simulated-cycle ratio. Unparseable or
/// sectionless text yields an empty list.
pub fn parse_estimated_accuracy(text: &str) -> Vec<(String, f64)> {
    let Some(idx) = text.find("\"estimated_accuracy\"") else {
        return Vec::new();
    };
    let rest = &text[idx + "\"estimated_accuracy\"".len()..];
    let Some(open) = rest.find('{') else {
        return Vec::new();
    };
    let Some(close) = rest[open..].find('}') else {
        return Vec::new();
    };
    rest[open + 1..open + close]
        .split(',')
        .filter_map(|entry| {
            let (k, v) = entry.split_once(':')?;
            let k = k.trim().trim_matches('"');
            let v: f64 = v.trim().parse().ok()?;
            (!k.is_empty()).then(|| (k.to_string(), v))
        })
        .collect()
}

/// Gate the fresh estimated-accuracy ratios against a committed baseline:
/// every scenario of the baseline's `estimated_accuracy` section must be
/// present in the fresh run (a dropped scenario errors rather than
/// silently disabling its own gate) with its ratio inside `[lo, hi]` —
/// or, when the committed ratio itself lies outside the band
/// (barrier-dominated scale-out shapes, see [`ACCURACY_REL`]), within
/// [`ACCURACY_REL`]× of the committed value. A
/// baseline whose section is present but empty/garbled gates nothing and
/// fails, mirroring the other gates' empty-baseline rule (callers skip
/// this gate entirely for baselines without the section — see
/// [`has_estimated_accuracy`]).
pub fn check_accuracy_gate(
    fresh: &[(String, f64)],
    baseline_text: &str,
    lo: f64,
    hi: f64,
) -> GateReport {
    let baseline = parse_estimated_accuracy(baseline_text);
    if baseline.is_empty() {
        return GateReport {
            checked: Vec::new(),
            failures: vec![GateFailure::NoGatedEntries],
        };
    }
    let mut report = GateReport::default();
    for (name, base) in baseline {
        match fresh.iter().find(|(n, _)| *n == name) {
            None => report.failures.push(GateFailure::MissingEntry(name)),
            Some((_, ratio)) => {
                let in_band = (lo..=hi).contains(ratio);
                // Committed-out-of-band scenarios are gated relative to
                // their committed ratio instead (the absolute band could
                // never pass them); in-band baselines keep the absolute
                // semantics untouched.
                let rel_ok = !(lo..=hi).contains(&base)
                    && base > 0.0
                    && (1.0 / ACCURACY_REL..=ACCURACY_REL).contains(&(ratio / base));
                if !in_band && !rel_ok {
                    report.failures.push(GateFailure::AccuracyOutOfBand {
                        name: name.clone(),
                        ratio: *ratio,
                        lo,
                        hi,
                    });
                }
                report.checked.push(CheckedEntry {
                    name,
                    fresh: *ratio,
                    baseline: base,
                });
            }
        }
    }
    report
}

/// Summary of the fresh run's in-process service burst, as gated: the
/// booleans are hard guarantees; the throughput is recorded but only
/// required to be *positive* (absolute jobs/s would make the gate a host
/// speed lottery).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSummary {
    /// Accepted jobs that completed successfully.
    pub completed: usize,
    /// Completed jobs per second of burst wall time.
    pub throughput_jobs_per_s: f64,
    /// Every health check during the burst was answered `200`.
    pub health_ok: bool,
    /// Every backpressure rejection carried a `retry_after_ms` hint.
    pub backpressure_hinted: bool,
    /// Injected faults became structured per-job failures while the rest
    /// of the burst completed (see `serve::failure_isolated`).
    pub failure_isolated: bool,
}

/// Whether a baseline file carries a `"service"` section at all. Old
/// baselines (schema <= v6) legitimately predate the scenario service;
/// the caller skips the service gate for them instead of failing on a
/// section that could not exist.
pub fn has_service(text: &str) -> bool {
    text.contains("\"service\"")
}

/// Extract the baseline's `"service"` throughput (informational — shown
/// next to the fresh value, never gated on).
pub fn parse_service_throughput(text: &str) -> Option<f64> {
    let idx = text.find("\"service\"")?;
    let rest = &text[idx..];
    let open = rest.find('{')?;
    let close = rest[open..].find('}')?;
    rest[open + 1..open + close]
        .split(',')
        .filter_map(|entry| entry.split_once(':'))
        .find(|(k, _)| k.trim().trim_matches('"') == "throughput_jobs_per_s")
        .and_then(|(_, v)| v.trim().parse().ok())
}

/// Gate the fresh service burst against a committed baseline that carries
/// a `"service"` section: the fresh run must have produced a burst at all
/// (a missing section would silently disable this gate), the burst must
/// have made forward progress, and every service guarantee — health
/// availability, hinted backpressure, failure isolation — must hold.
/// Throughput is reported (`checked`) but not thresholded.
pub fn check_service_gate(fresh: Option<&ServiceSummary>, baseline_text: &str) -> GateReport {
    let Some(fresh) = fresh else {
        return GateReport {
            checked: Vec::new(),
            failures: vec![GateFailure::MissingEntry("service section".to_string())],
        };
    };
    let mut report = GateReport::default();
    if fresh.completed == 0 {
        report.failures.push(GateFailure::ServiceGuarantee(
            "no job of the burst completed".to_string(),
        ));
    }
    // `partial_cmp` so a NaN throughput fails the gate too.
    if fresh.throughput_jobs_per_s.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        report.failures.push(GateFailure::ServiceGuarantee(
            "throughput is not positive".to_string(),
        ));
    }
    if !fresh.health_ok {
        report.failures.push(GateFailure::ServiceGuarantee(
            "health checks went unanswered during the burst".to_string(),
        ));
    }
    if !fresh.backpressure_hinted {
        report.failures.push(GateFailure::ServiceGuarantee(
            "a 429 rejection lacked the retry_after_ms hint".to_string(),
        ));
    }
    if !fresh.failure_isolated {
        report.failures.push(GateFailure::ServiceGuarantee(
            "injected faults were not isolated as structured failures".to_string(),
        ));
    }
    report.checked.push(CheckedEntry {
        name: "service_throughput".to_string(),
        fresh: fresh.throughput_jobs_per_s,
        baseline: parse_service_throughput(baseline_text).unwrap_or(0.0),
    });
    report
}

/// Summary of the fresh run's template-throughput experiment: the same
/// repeat-seed quick battery timed twice, once cold-building every run
/// and once instantiating from the template cache.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputSummary {
    /// Runs timed per arm (cold and cached each execute this many).
    pub runs: usize,
    /// Cold arm: build + run, no template cache.
    pub cold_runs_per_s: f64,
    /// Cached arm: template instantiation + run.
    pub cached_runs_per_s: f64,
}

impl ThroughputSummary {
    /// Cached / cold runs-per-second ratio (NaN when cold is zero —
    /// which the gate then fails on).
    pub fn speedup(&self) -> f64 {
        self.cached_runs_per_s / self.cold_runs_per_s
    }
}

/// Required multiple of cold-build throughput the template cache must
/// deliver on the repeat-seed quick battery. A ratio of two arms timed
/// on the same host in the same process, so — unlike absolute jobs/s —
/// it is *not* a host-speed lottery and can be gated hard.
///
/// The ratio was about 4× while a cold Sudoku build spent most of a
/// second generating its puzzle; with exact bitmask uniqueness counting
/// and row-parallel noise tables a cold quick build costs about as much
/// as an instantiation, and the ratio measured 0.99-1.17× (14 runs on a
/// 2-CPU host). The floor sits 24 % below that minimum: it no longer
/// asks the cache for a speedup, only that instantiating never costs
/// much more than building cold.
pub const THROUGHPUT_FLOOR: f64 = 0.75;

/// Whether a baseline file carries a `"battery_throughput"` section at
/// all. Old baselines (schema <= v7) legitimately predate run templates;
/// the caller skips the throughput gate for them instead of failing on a
/// section that could not exist.
pub fn has_battery_throughput(text: &str) -> bool {
    text.contains("\"battery_throughput\"")
}

/// Extract the baseline's `"battery_throughput"` speedup (informational —
/// shown next to the fresh value, never gated on).
pub fn parse_battery_throughput_speedup(text: &str) -> Option<f64> {
    let idx = text.find("\"battery_throughput\"")?;
    let rest = &text[idx..];
    let open = rest.find('{')?;
    let close = rest[open..].find('}')?;
    rest[open + 1..open + close]
        .split(',')
        .filter_map(|entry| entry.split_once(':'))
        .find(|(k, _)| k.trim().trim_matches('"') == "speedup")
        .and_then(|(_, v)| v.trim().parse().ok())
}

/// Gate the fresh template-throughput experiment against a committed
/// baseline that carries a `"battery_throughput"` section: the fresh run
/// must have produced the section at all (a missing experiment would
/// silently disable this gate), both arms must have made forward
/// progress, and the cached arm must be at least `floor` × the cold arm.
/// The absolute runs/s numbers are reported (`checked`) but only their
/// ratio is thresholded.
pub fn check_throughput_gate(
    fresh: Option<&ThroughputSummary>,
    baseline_text: &str,
    floor: f64,
) -> GateReport {
    let Some(fresh) = fresh else {
        return GateReport {
            checked: Vec::new(),
            failures: vec![GateFailure::MissingEntry(
                "battery_throughput section".to_string(),
            )],
        };
    };
    let mut report = GateReport::default();
    if fresh.runs == 0 {
        report.failures.push(GateFailure::ServiceGuarantee(
            "battery_throughput timed zero runs".to_string(),
        ));
    }
    // `partial_cmp` so NaN (e.g. a zero-duration cold arm) fails too.
    let positive = |v: f64| v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
    if !positive(fresh.cold_runs_per_s) || !positive(fresh.cached_runs_per_s) {
        report.failures.push(GateFailure::ServiceGuarantee(
            "battery_throughput arm is not positive".to_string(),
        ));
    } else if fresh.speedup() < floor {
        report
            .failures
            .push(GateFailure::TemplateSpeedupBelowFloor {
                speedup: fresh.speedup(),
                floor,
            });
    }
    report.checked.push(CheckedEntry {
        name: "template_speedup".to_string(),
        fresh: fresh.speedup(),
        baseline: parse_battery_throughput_speedup(baseline_text).unwrap_or(0.0),
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
  "schema": "izhirisc-perf-baseline-v4",
  "workloads": [],
  "speedup_vs_seed": {
    "net8020_quick_1core": 2.000,
    "net8020_paper_1core_100ms": 1.900,
    "net8020_quick_2core": 2.790
  }
}"#;

    fn fresh(entries: &[(&str, f64)]) -> Vec<(String, f64)> {
        entries.iter().map(|&(n, v)| (n.to_string(), v)).collect()
    }

    #[test]
    fn parses_speedup_entries() {
        let entries = parse_speedups(BASELINE);
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0], ("net8020_quick_1core".to_string(), 2.0));
    }

    #[test]
    fn passes_when_all_entries_hold() {
        let f = fresh(&[
            ("net8020_quick_1core", 1.95),
            ("net8020_paper_1core_100ms", 1.88),
            // 2-core entries are informational: absent or regressed is fine.
        ]);
        let report = check_gate(&f, BASELINE, 0.85);
        assert!(report.passed());
        assert_eq!(report.checked.len(), 2);
    }

    #[test]
    fn missing_baseline_key_errors_instead_of_passing() {
        // A fresh run that lost (e.g. renamed) a gated row must fail the
        // gate even though every entry it *does* have looks healthy.
        let f = fresh(&[("net8020_quick_1core", 2.5)]);
        let report = check_gate(&f, BASELINE, 0.85);
        assert!(!report.passed());
        assert_eq!(
            report.failures,
            vec![GateFailure::MissingEntry(
                "net8020_paper_1core_100ms".to_string()
            )]
        );
    }

    #[test]
    fn regression_below_min_ratio_errors() {
        let f = fresh(&[
            ("net8020_quick_1core", 1.0), // 0.5x of baseline
            ("net8020_paper_1core_100ms", 1.9),
        ]);
        let report = check_gate(&f, BASELINE, 0.85);
        assert_eq!(report.failures.len(), 1);
        assert!(matches!(
            &report.failures[0],
            GateFailure::Regressed { name, .. } if name == "net8020_quick_1core"
        ));
    }

    #[test]
    fn empty_or_garbled_baseline_errors() {
        let f = fresh(&[("net8020_quick_1core", 2.0)]);
        assert_eq!(
            check_gate(&f, "not json at all", 0.85).failures,
            vec![GateFailure::NoGatedEntries]
        );
        // A baseline with only multi-core entries gates nothing — that is
        // an error too, not a vacuous pass.
        let multi_only = r#"{"speedup_vs_seed": {"net8020_quick_2core": 2.79}}"#;
        assert_eq!(
            check_gate(&f, multi_only, 0.85).failures,
            vec![GateFailure::NoGatedEntries]
        );
    }

    const BATTERY_BASELINE: &str = r#"{
  "battery": [
    {"key": "net8020:5:exact", "verified": true},
    {"key": "net8020:5:relaxed-par", "verified": true}
  ]
}"#;

    fn fresh_battery(entries: &[(&str, bool)]) -> Vec<(String, bool)> {
        entries.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn battery_gate_passes_when_keys_hold() {
        let f = fresh_battery(&[
            ("net8020:5:exact", true),
            ("net8020:5:relaxed-par", true),
            ("extra:1:exact", true), // extra fresh rows are fine
        ]);
        let report = check_battery_gate(&f, BATTERY_BASELINE);
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.checked.len(), 2);
    }

    #[test]
    fn battery_gate_errors_on_missing_key() {
        let f = fresh_battery(&[("net8020:5:exact", true)]);
        let report = check_battery_gate(&f, BATTERY_BASELINE);
        assert_eq!(
            report.failures,
            vec![GateFailure::MissingEntry(
                "net8020:5:relaxed-par".to_string()
            )]
        );
    }

    #[test]
    fn battery_gate_errors_on_unverified_row() {
        let f = fresh_battery(&[("net8020:5:exact", true), ("net8020:5:relaxed-par", false)]);
        let report = check_battery_gate(&f, BATTERY_BASELINE);
        assert_eq!(
            report.failures,
            vec![GateFailure::Unverified("net8020:5:relaxed-par".to_string())]
        );
    }

    #[test]
    fn battery_gate_errors_on_batteryless_baseline() {
        let f = fresh_battery(&[("net8020:5:exact", true)]);
        assert_eq!(
            check_battery_gate(&f, BASELINE).failures,
            vec![GateFailure::NoGatedEntries]
        );
    }

    const ACCURACY_BASELINE: &str = r#"{
  "estimated_accuracy": {
    "net8020": 0.912,
    "sudoku": 1.104
  }
}"#;

    #[test]
    fn accuracy_gate_passes_inside_the_band() {
        let f = fresh(&[("net8020", 1.2), ("sudoku", 0.8), ("extra", 9.0)]);
        let report = check_accuracy_gate(&f, ACCURACY_BASELINE, 0.5, 2.0);
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.checked.len(), 2);
    }

    #[test]
    fn accuracy_gate_errors_outside_the_band() {
        let f = fresh(&[("net8020", 2.5), ("sudoku", 1.0)]);
        let report = check_accuracy_gate(&f, ACCURACY_BASELINE, 0.5, 2.0);
        assert_eq!(report.failures.len(), 1);
        assert!(matches!(
            &report.failures[0],
            GateFailure::AccuracyOutOfBand { name, ratio, .. }
                if name == "net8020" && (*ratio - 2.5).abs() < 1e-12
        ));
    }

    #[test]
    fn accuracy_gate_errors_on_missing_scenario() {
        let f = fresh(&[("net8020", 1.0)]);
        let report = check_accuracy_gate(&f, ACCURACY_BASELINE, 0.5, 2.0);
        assert_eq!(
            report.failures,
            vec![GateFailure::MissingEntry("sudoku".to_string())]
        );
    }

    #[test]
    fn out_of_band_baselines_are_gated_relative_to_their_committed_ratio() {
        // A barrier-dominated scale-out scenario commits a ratio below
        // the absolute band: reproducing it (within the relative factor)
        // must pass, drifting past the factor must fail, and in-band
        // scenarios in the same baseline keep the absolute semantics.
        let baseline = r#"{
  "estimated_accuracy": {
    "net8020_sharded": 0.250,
    "net8020": 1.026
  }
}"#;
        let ok = fresh(&[("net8020_sharded", 0.26), ("net8020", 1.0)]);
        assert!(check_accuracy_gate(&ok, baseline, 0.5, 2.0).passed());
        let drifted = fresh(&[("net8020_sharded", 0.06), ("net8020", 1.0)]);
        let report = check_accuracy_gate(&drifted, baseline, 0.5, 2.0);
        assert!(matches!(
            &report.failures[..],
            [GateFailure::AccuracyOutOfBand { name, .. }] if name == "net8020_sharded"
        ));
        // An in-band baseline never unlocks the relative escape hatch:
        // 1.9 is within 2x of the committed 1.026 but outside the band.
        let escaped = fresh(&[("net8020_sharded", 0.25), ("net8020", 2.05)]);
        let report = check_accuracy_gate(&escaped, baseline, 0.5, 2.0);
        assert!(matches!(
            &report.failures[..],
            [GateFailure::AccuracyOutOfBand { name, .. }] if name == "net8020"
        ));
    }

    #[test]
    fn accuracy_gate_detects_the_section() {
        assert!(has_estimated_accuracy(ACCURACY_BASELINE));
        assert!(!has_estimated_accuracy(BASELINE));
        // Old baselines without the section are the caller's skip case; a
        // present-but-garbled section must fail, not pass.
        assert_eq!(
            check_accuracy_gate(&fresh(&[]), r#"{"estimated_accuracy": "zap"}"#, 0.5, 2.0).failures,
            vec![GateFailure::NoGatedEntries]
        );
        assert_eq!(
            check_accuracy_gate(&fresh(&[("a", 1.0)]), BASELINE, 0.5, 2.0).failures,
            vec![GateFailure::NoGatedEntries]
        );
    }

    const SERVICE_BASELINE: &str = r#"{
  "service": {"jobs": 40, "completed": 38, "throughput_jobs_per_s": 410.5, "health_ok": true}
}"#;

    fn healthy_summary() -> ServiceSummary {
        ServiceSummary {
            completed: 38,
            throughput_jobs_per_s: 350.0,
            health_ok: true,
            backpressure_hinted: true,
            failure_isolated: true,
        }
    }

    #[test]
    fn service_gate_passes_when_guarantees_hold() {
        let report = check_service_gate(Some(&healthy_summary()), SERVICE_BASELINE);
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.checked.len(), 1);
        assert_eq!(
            report.checked[0].baseline, 410.5,
            "baseline throughput parsed"
        );
    }

    #[test]
    fn service_gate_errors_on_each_broken_guarantee() {
        for (mutate, what) in [
            (
                (|s: &mut ServiceSummary| s.completed = 0) as fn(&mut ServiceSummary),
                "no job",
            ),
            (|s| s.throughput_jobs_per_s = 0.0, "not positive"),
            (|s| s.health_ok = false, "health"),
            (|s| s.backpressure_hinted = false, "retry_after_ms"),
            (|s| s.failure_isolated = false, "not isolated"),
        ] {
            let mut s = healthy_summary();
            mutate(&mut s);
            let report = check_service_gate(Some(&s), SERVICE_BASELINE);
            assert!(
                report.failures.iter().any(|f| f.to_string().contains(what)),
                "expected a failure mentioning `{what}`, got {:?}",
                report.failures
            );
        }
    }

    #[test]
    fn service_gate_errors_when_fresh_run_has_no_burst() {
        // The baseline promises a service section; a fresh run without
        // one must fail rather than silently skipping its own gate.
        let report = check_service_gate(None, SERVICE_BASELINE);
        assert_eq!(
            report.failures,
            vec![GateFailure::MissingEntry("service section".to_string())]
        );
    }

    #[test]
    fn service_section_detection_and_skip_case() {
        assert!(has_service(SERVICE_BASELINE));
        assert!(!has_service(BASELINE), "old baselines skip the gate");
        assert_eq!(parse_service_throughput(SERVICE_BASELINE), Some(410.5));
        assert_eq!(parse_service_throughput(BASELINE), None);
    }

    const THROUGHPUT_BASELINE: &str = r#"{
  "battery_throughput": {"runs": 24, "cold_runs_per_s": 10.0, "cached_runs_per_s": 55.0, "speedup": 5.500}
}"#;

    fn healthy_throughput() -> ThroughputSummary {
        ThroughputSummary {
            runs: 24,
            cold_runs_per_s: 10.0,
            cached_runs_per_s: 30.0,
        }
    }

    #[test]
    fn throughput_gate_passes_above_the_floor() {
        let report = check_throughput_gate(Some(&healthy_throughput()), THROUGHPUT_BASELINE, 2.0);
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.checked.len(), 1);
        assert!((report.checked[0].fresh - 3.0).abs() < 1e-12, "speedup 3x");
        assert_eq!(
            report.checked[0].baseline, 5.5,
            "baseline speedup parsed for display"
        );
    }

    #[test]
    fn throughput_gate_errors_below_the_floor() {
        let mut s = healthy_throughput();
        s.cached_runs_per_s = 15.0; // 1.5x < 2x floor
        let report = check_throughput_gate(Some(&s), THROUGHPUT_BASELINE, 2.0);
        assert_eq!(report.failures.len(), 1);
        assert!(matches!(
            &report.failures[0],
            GateFailure::TemplateSpeedupBelowFloor { speedup, floor }
                if (*speedup - 1.5).abs() < 1e-12 && *floor == 2.0
        ));
    }

    #[test]
    fn throughput_gate_errors_on_degenerate_arms() {
        for mutate in [
            (|s: &mut ThroughputSummary| s.runs = 0) as fn(&mut ThroughputSummary),
            |s| s.cold_runs_per_s = 0.0,
            |s| s.cached_runs_per_s = f64::NAN,
        ] {
            let mut s = healthy_throughput();
            mutate(&mut s);
            assert!(
                !check_throughput_gate(Some(&s), THROUGHPUT_BASELINE, 2.0).passed(),
                "degenerate summary {s:?} must fail"
            );
        }
    }

    #[test]
    fn throughput_gate_errors_when_fresh_run_has_no_section() {
        // The baseline promises the section; a fresh run without one must
        // fail rather than silently skipping its own gate.
        let report = check_throughput_gate(None, THROUGHPUT_BASELINE, THROUGHPUT_FLOOR);
        assert_eq!(
            report.failures,
            vec![GateFailure::MissingEntry(
                "battery_throughput section".to_string()
            )]
        );
    }

    #[test]
    fn throughput_section_detection_and_skip_case() {
        assert!(has_battery_throughput(THROUGHPUT_BASELINE));
        assert!(!has_battery_throughput(BASELINE), "old baselines skip");
        assert_eq!(
            parse_battery_throughput_speedup(THROUGHPUT_BASELINE),
            Some(5.5)
        );
        assert_eq!(parse_battery_throughput_speedup(BASELINE), None);
    }

    #[test]
    fn multi_core_entries_are_informational() {
        // The 2-core baseline entry exists but the fresh run reports it
        // far lower: must still pass (host-dependent row).
        let f = fresh(&[
            ("net8020_quick_1core", 2.0),
            ("net8020_paper_1core_100ms", 1.9),
            ("net8020_quick_2core", 0.1),
        ]);
        assert!(check_gate(&f, BASELINE, 0.85).passed());
    }

    #[test]
    fn floor_gate_checks_only_headline_single_core_rows() {
        // Diagnostic (_norelax/_nosb/_nokernel) and multi-core rows are
        // exempt from the absolute floor even when they sit far below it;
        // the kernel-on relaxed row is headline and stays gated.
        let f = fresh(&[
            ("net8020_quick_1core", 2.2),
            ("net8020_quick_1core_norelax", 1.1),
            ("net8020_quick_1core_nosb", 0.9),
            ("net8020_quick_1core_relaxed", 3.5),
            ("net8020_quick_1core_relaxed_nokernel", 1.4),
            ("net8020_quick_2core", 1.2),
        ]);
        let report = check_floor_gate(&f, SINGLE_CORE_FLOOR);
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.checked.len(), 2);
        assert_eq!(report.checked[0].name, "net8020_quick_1core");
        assert_eq!(report.checked[1].name, "net8020_quick_1core_relaxed");
    }

    #[test]
    fn kernel_gate_passes_when_both_floors_clear() {
        let f = fresh(&[
            ("net8020_quick_1core", 2.2),
            ("net8020_quick_1core_relaxed", 3.5),
            ("net8020_quick_1core_relaxed_nokernel", 1.4),
            ("net8020_paper_1core_100ms_relaxed", 6.0),
            ("net8020_paper_1core_100ms_relaxed_nokernel", 2.1),
        ]);
        let report = check_kernel_gate(&f, RELAXED_SINGLE_CORE_FLOOR, KERNEL_SPEEDUP_FLOOR);
        assert!(report.passed(), "{:?}", report.failures);
        // One checked entry per on/off pair, carrying the on/off ratio.
        assert_eq!(report.checked.len(), 2);
        assert!((report.checked[0].fresh - 2.5).abs() < 1e-9);
    }

    #[test]
    fn kernel_gate_errors_on_low_ratio_low_quick_row_or_missing_twin() {
        // On/off ratio below the kernel floor.
        let low_ratio = fresh(&[
            ("net8020_quick_1core_relaxed", 3.0),
            ("net8020_quick_1core_relaxed_nokernel", 2.9),
        ]);
        let report = check_kernel_gate(&low_ratio, 2.8, 1.25);
        assert!(matches!(
            &report.failures[..],
            [GateFailure::KernelSpeedupBelowFloor { name, on, off, floor }]
                if name == "net8020_quick_1core_relaxed"
                    && *on == 3.0 && *off == 2.9 && *floor == 1.25
        ));
        // Quick relaxed row below its absolute floor (ratio fine).
        let low_quick = fresh(&[
            ("net8020_quick_1core_relaxed", 2.0),
            ("net8020_quick_1core_relaxed_nokernel", 1.0),
        ]);
        let report = check_kernel_gate(&low_quick, 2.8, 1.25);
        assert!(matches!(
            &report.failures[..],
            [GateFailure::BelowAbsoluteFloor { name, fresh, floor }]
                if name == "net8020_quick_1core_relaxed" && *fresh == 2.0 && *floor == 2.8
        ));
        // A kernel-on row without its nokernel twin cannot silently skip
        // the ratio check.
        let no_twin = fresh(&[("net8020_quick_1core_relaxed", 3.5)]);
        let report = check_kernel_gate(&no_twin, 2.8, 1.25);
        assert!(report
            .failures
            .iter()
            .any(|e| matches!(e, GateFailure::MissingEntry(n)
                if n == "net8020_quick_1core_relaxed_nokernel")));
        // No relaxed rows at all gates nothing — an error, not a pass.
        let none = fresh(&[("net8020_quick_1core", 2.2)]);
        assert_eq!(
            check_kernel_gate(&none, 2.8, 1.25).failures,
            vec![GateFailure::NoGatedEntries]
        );
        // The gated quick row itself must exist.
        let paper_only = fresh(&[
            ("net8020_paper_1core_100ms_relaxed", 6.0),
            ("net8020_paper_1core_100ms_relaxed_nokernel", 2.1),
        ]);
        let report = check_kernel_gate(&paper_only, 2.8, 1.25);
        assert!(report
            .failures
            .iter()
            .any(|e| matches!(e, GateFailure::MissingEntry(n)
                if n == "net8020_quick_1core_relaxed")));
    }

    #[test]
    fn floor_gate_errors_below_the_floor_and_on_empty_gated_set() {
        let f = fresh(&[("net8020_quick_1core", 1.7)]);
        let report = check_floor_gate(&f, 2.0);
        assert!(matches!(
            &report.failures[..],
            [GateFailure::BelowAbsoluteFloor { name, fresh, floor }]
                if name == "net8020_quick_1core" && *fresh == 1.7 && *floor == 2.0
        ));
        // A fresh run with no headline single-core rows gates nothing —
        // an error, not a vacuous pass.
        let diag_only = fresh(&[("net8020_quick_1core_nosb", 2.5)]);
        assert_eq!(
            check_floor_gate(&diag_only, 2.0).failures,
            vec![GateFailure::NoGatedEntries]
        );
    }

    const INSTRET_BASELINE: &str = r#"{
  "instret_reduction": {
    "net8020_quick_1core": 0.0305,
    "net8020_paper_1core_100ms": 0.012
  }
}"#;

    #[test]
    fn instret_section_parses_and_is_detected() {
        assert!(has_instret_reduction(INSTRET_BASELINE));
        assert!(!has_instret_reduction(BASELINE), "old baselines skip");
        let entries = parse_instret_reduction(INSTRET_BASELINE);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0], ("net8020_quick_1core".to_string(), 0.0305));
    }

    #[test]
    fn instret_gate_floors_the_quick_row_only() {
        // The paper shape relaxes less (its integration loops dominate);
        // it is presence-checked but not floored.
        let ok = fresh(&[
            ("net8020_quick_1core", 0.031),
            ("net8020_paper_1core_100ms", 0.001),
        ]);
        let report = check_instret_gate(&ok, INSTRET_BASELINE, INSTRET_REDUCTION_FLOOR);
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.checked.len(), 2);

        let low = fresh(&[
            ("net8020_quick_1core", 0.004),
            ("net8020_paper_1core_100ms", 0.012),
        ]);
        let report = check_instret_gate(&low, INSTRET_BASELINE, 0.03);
        assert!(matches!(
            &report.failures[..],
            [GateFailure::InstretReductionBelowFloor { name, fresh, floor }]
                if name == "net8020_quick_1core" && *fresh == 0.004 && *floor == 0.03
        ));
    }

    #[test]
    fn instret_gate_errors_on_missing_row_or_sectionless_baseline() {
        let f = fresh(&[("net8020_quick_1core", 0.031)]);
        let report = check_instret_gate(&f, INSTRET_BASELINE, 0.03);
        assert_eq!(
            report.failures,
            vec![GateFailure::MissingEntry(
                "net8020_paper_1core_100ms".to_string()
            )]
        );
        assert_eq!(
            check_instret_gate(&f, BASELINE, 0.03).failures,
            vec![GateFailure::NoGatedEntries]
        );
    }
}
