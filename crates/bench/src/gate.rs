//! The CI perf-regression gate behind `perf_baseline --check`: one table
//! of rules ([`RULES`]) evaluated over the BENCH document `perf_baseline`
//! writes, against the committed baseline document.
//!
//! A rule that cannot see what it gates fails. A key the rule selects but
//! the fresh document lacks fails as missing, so a renamed or dropped row
//! never disables its own gate. A selection that matches nothing fails as
//! "nothing gated", and a value that is not a finite number (a non-finite
//! float is written as `null`) fails every numeric rule.

use std::fmt;

use crate::json::Value;
use Rule::*;
use Select::*;

/// Which keys of a section a check gates.
#[derive(Debug, Clone, Copy)]
pub enum Select {
    /// Exactly these keys, each required in the fresh section.
    Keys(&'static [&'static str]),
    /// Every key matching the glob and none of the exclusions. A glob has
    /// `*` at either end or both (`*_1core*`, `*_relaxed`, `*`).
    /// [`Rule::Relative`], bounded by the baseline, and
    /// [`Rule::KeysPresent`] select from the baseline section; absolute
    /// rules select from the fresh one.
    Glob(&'static str, &'static [&'static str]),
}

/// What a selected value must satisfy.
#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// At least this multiple of the key's baseline value.
    Relative(f64),
    /// At least this value.
    Floor(f64),
    /// The key's value over its twin's (the key plus this suffix) is at
    /// least the floor; a missing twin fails.
    Ratio(&'static str, f64),
    /// Present in the fresh section.
    KeysPresent,
}

impl Rule {
    /// The rule's name in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::Relative(_) => "relative",
            Rule::Floor(_) => "floor",
            Rule::Ratio(..) => "ratio",
            Rule::KeysPresent => "keys_present",
        }
    }

    fn selects_from_baseline(&self) -> bool {
        matches!(self, Rule::Relative(_) | Rule::KeysPresent)
    }
}

/// One line of the gate table.
#[derive(Debug, Clone, Copy)]
pub struct Check {
    /// Top-level key of the BENCH document.
    pub section: &'static str,
    /// The gated keys.
    pub select: Select,
    /// What each must satisfy.
    pub rule: Rule,
}

const fn check(section: &'static str, select: Select, rule: Rule) -> Check {
    Check {
        section,
        select,
        rule,
    }
}

/// The perf gate. Speedups are same-process seed-vs-live wall ratios and
/// the template speedup is a same-process cached/cold ratio, so no bound
/// is a runner-speed lottery.
pub const RULES: &[Check] = &[
    // Every committed single-core speedup, diagnostic rows included, holds
    // 0.85× its baseline. Multi-core rows are informational.
    check("speedup_vs_seed", Glob("*_1core*", &[]), Relative(0.85)),
    // Headline single-core rows clear 2.0× outright, so re-baselining
    // cannot erode the floor. The exact path measures about 2.2-2.3×.
    check(
        "speedup_vs_seed",
        Glob("*_1core*", &["*_norelax", "*_nosb", "*_nokernel"]),
        Floor(2.0),
    ),
    // The relaxed quick row with kernels on, the configuration relaxed
    // sweeps ship, reaches the 2.8× the exact path could not.
    check(
        "speedup_vs_seed",
        Keys(&["net8020_quick_1core_relaxed"]),
        Floor(2.8),
    ),
    // Kernel offload beats its kernel-off twin; both are timed against
    // the same seed run, so the ratio is a pure on/off wall ratio.
    check(
        "speedup_vs_seed",
        Glob("*_relaxed", &[]),
        Ratio("_nokernel", 1.25),
    ),
    // Assembler relaxation's instret saving is deterministic, so the
    // floor sits just under the measured 3.05 % of the quick row.
    check("instret_reduction", Glob("*", &[]), KeysPresent),
    check(
        "instret_reduction",
        Keys(&["net8020_quick_1core"]),
        Floor(0.03),
    ),
    // Instantiating a cached template never costs much more than a cold
    // build. A cold quick build costs about as much as an instantiation,
    // so no speedup is claimed.
    check("battery_throughput", Keys(&["runs"]), Floor(1.0)),
    check(
        "battery_throughput",
        Keys(&["cold_runs_per_s", "cached_runs_per_s"]),
        Floor(0.01),
    ),
    check("battery_throughput", Keys(&["speedup"]), Floor(0.75)),
];

/// The verdict on one gated key.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Rule name.
    pub rule: &'static str,
    /// JSON path of the gated value (`section.key`), or the section and
    /// selector when nothing was gated.
    pub path: String,
    /// The fresh value as written, `missing`, or `nothing gated`.
    pub fresh: String,
    /// What the value had to satisfy.
    pub bound: String,
    /// Whether it did.
    pub passed: bool,
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.passed { "pass" } else { "FAIL" };
        write!(
            f,
            "{verdict} {} {} = {} (need {})",
            self.rule, self.path, self.fresh, self.bound
        )
    }
}

/// Evaluate `checks` on the `fresh` document against `baseline`; the gate
/// passes when every outcome passed.
pub fn evaluate<'a>(
    fresh: &Value,
    baseline: &Value,
    checks: impl IntoIterator<Item = &'a Check>,
) -> Vec<Outcome> {
    let mut out = Vec::new();
    for c in checks {
        c.evaluate(fresh, baseline, &mut out);
    }
    out
}

/// The members of an object section.
fn entries<'a>(doc: &'a Value, section: &str) -> Vec<(&'a str, &'a Value)> {
    match doc.get(section) {
        Some(Value::Object(members)) => members.iter().map(|(k, v)| (k.as_str(), v)).collect(),
        _ => Vec::new(),
    }
}

fn find<'a>(entries: &[(&str, &'a Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn glob(pattern: &str, key: &str) -> bool {
    let (head, body) = pattern
        .strip_prefix('*')
        .map_or((false, pattern), |b| (true, b));
    let (tail, body) = body.strip_suffix('*').map_or((false, body), |b| (true, b));
    match (head, tail) {
        (true, true) => key.contains(body),
        (true, false) => key.ends_with(body),
        (false, true) => key.starts_with(body),
        (false, false) => key == body,
    }
}

impl Check {
    fn evaluate(&self, fresh: &Value, baseline: &Value, out: &mut Vec<Outcome>) {
        let fresh_entries = entries(fresh, self.section);
        let base_entries = entries(baseline, self.section);
        let keys: Vec<&str> = match self.select {
            Keys(keys) => keys.to_vec(),
            Glob(pattern, except) => {
                let source = if self.rule.selects_from_baseline() {
                    &base_entries
                } else {
                    &fresh_entries
                };
                source
                    .iter()
                    .map(|(k, _)| *k)
                    .filter(|k| glob(pattern, k) && !except.iter().any(|x| glob(x, k)))
                    .collect()
            }
        };
        if keys.is_empty() {
            let path = format!("{}[{:?}]", self.section, self.select);
            out.push(self.outcome(path, "nothing gated", "a gated key", false));
            return;
        }
        for key in keys {
            let path = format!("{}.{key}", self.section);
            out.push(match find(&fresh_entries, key) {
                None => self.outcome(path, "missing", "present", false),
                Some(value) => {
                    let base = find(&base_entries, key).and_then(Value::as_f64);
                    self.judge(path, key, value, &fresh_entries, base)
                }
            });
        }
    }

    fn outcome(
        &self,
        path: String,
        fresh: impl Into<String>,
        bound: impl Into<String>,
        passed: bool,
    ) -> Outcome {
        Outcome {
            rule: self.rule.name(),
            path,
            fresh: fresh.into(),
            bound: bound.into(),
            passed,
        }
    }

    /// The outcome for the fresh `value` under `key`.
    fn judge(
        &self,
        path: String,
        key: &str,
        value: &Value,
        fresh_entries: &[(&str, &Value)],
        base: Option<f64>,
    ) -> Outcome {
        let v = value.as_f64();
        match self.rule {
            Relative(k) => {
                let passed = matches!((v, base), (Some(v), Some(b)) if v >= k * b);
                let b = base.map_or("no baseline value".into(), |b| b.to_string());
                self.outcome(path, value.to_string(), format!(">= {k} x {b}"), passed)
            }
            Floor(x) => {
                let passed = v.is_some_and(|v| v >= x);
                self.outcome(path, value.to_string(), format!(">= {x}"), passed)
            }
            Ratio(suffix, floor) => {
                let twin = format!("{key}{suffix}");
                let Some(off) = find(fresh_entries, &twin) else {
                    return self.outcome(
                        format!("{}.{twin}", self.section),
                        "missing",
                        "present",
                        false,
                    );
                };
                let ratio = v.zip(off.as_f64()).map(|(on, off)| on / off);
                let ratio = ratio.filter(|r| r.is_finite());
                let shown = ratio.map_or("not a number".into(), |r| format!("{r:.3}"));
                let bound = format!("{key} / {twin} >= {floor}");
                self.outcome(path, shown, bound, ratio.is_some_and(|r| r >= floor))
            }
            KeysPresent => self.outcome(path, "present", "present", true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn doc(text: &str) -> Value {
        json::parse(text).expect("test documents are JSON")
    }

    /// The table's checks of one rule on one section, run on `fresh`.
    fn gate(fresh: &Value, baseline: &str, section: &str, rule: &str) -> Vec<Outcome> {
        let checks = RULES
            .iter()
            .filter(|c| c.section == section && c.rule.name() == rule);
        evaluate(fresh, &doc(baseline), checks)
    }

    /// `(rule, path, fresh)` of every failed outcome.
    fn failures(outcomes: &[Outcome]) -> Vec<(&str, &str, &str)> {
        outcomes
            .iter()
            .filter(|o| !o.passed)
            .map(|o| (o.rule, o.path.as_str(), o.fresh.as_str()))
            .collect()
    }

    /// The members of an object.
    fn members(v: &mut Value) -> &mut Vec<(String, Value)> {
        match v {
            Value::Object(members) => members,
            other => panic!("not an object: {other}"),
        }
    }

    /// Set `section.key` of an object section (`None` removes it).
    fn set(doc: &mut Value, section: &str, key: &str, value: Option<Value>) {
        let s = members(doc).iter_mut().find(|(k, _)| k == section);
        let m = members(&mut s.expect(section).1);
        m.retain(|(k, _)| k != key);
        m.extend(value.map(|v| (key.to_string(), v)));
    }

    const BASELINE: &str = r#"{
  "schema": "izhirisc-perf-baseline-v4",
  "workloads": [],
  "speedup_vs_seed": {
    "net8020_quick_1core": 2.000,
    "net8020_paper_1core_100ms": 1.900,
    "net8020_quick_2core": 2.790
  }
}"#;

    fn speedups(entries: &[(&str, f64)]) -> Value {
        let section = entries.iter().map(|&(k, v)| (k, Value::Float(v)));
        Value::object([("speedup_vs_seed", Value::object(section))])
    }

    #[test]
    fn parses_speedup_entries() {
        let baseline = doc(BASELINE);
        let entries = entries(&baseline, "speedup_vs_seed");
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0], ("net8020_quick_1core", &Value::Float(2.0)));
    }

    #[test]
    fn passes_when_all_entries_hold() {
        let f = speedups(&[
            ("net8020_quick_1core", 1.95),
            ("net8020_paper_1core_100ms", 1.88),
            // 2-core entries are informational: absent or regressed is fine.
        ]);
        let outcomes = gate(&f, BASELINE, "speedup_vs_seed", "relative");
        assert_eq!(failures(&outcomes), []);
        assert_eq!(outcomes.len(), 2);
    }

    #[test]
    fn missing_baseline_key_errors_instead_of_passing() {
        // A fresh run that lost (e.g. renamed) a gated row must fail the
        // gate even though every entry it *does* have looks healthy.
        let f = speedups(&[("net8020_quick_1core", 2.5)]);
        let outcomes = gate(&f, BASELINE, "speedup_vs_seed", "relative");
        assert_eq!(
            failures(&outcomes),
            [(
                "relative",
                "speedup_vs_seed.net8020_paper_1core_100ms",
                "missing"
            )]
        );
    }

    #[test]
    fn regression_below_min_ratio_errors() {
        let f = speedups(&[
            ("net8020_quick_1core", 1.0), // 0.5x of baseline
            ("net8020_paper_1core_100ms", 1.9),
        ]);
        let outcomes = gate(&f, BASELINE, "speedup_vs_seed", "relative");
        assert_eq!(
            failures(&outcomes),
            [("relative", "speedup_vs_seed.net8020_quick_1core", "1.0")]
        );
    }

    #[test]
    fn empty_or_garbled_baseline_errors() {
        assert!(json::parse("not json at all").is_err());
        // A baseline with only multi-core entries gates nothing — that is
        // an error too, not a vacuous pass.
        let f = speedups(&[("net8020_quick_1core", 2.0)]);
        let multi_only = r#"{"speedup_vs_seed": {"net8020_quick_2core": 2.79}}"#;
        let outcomes = gate(&f, multi_only, "speedup_vs_seed", "relative");
        assert_eq!(failures(&outcomes).len(), 1);
        assert_eq!(outcomes[0].fresh, "nothing gated");
    }

    const HEALTHY_THROUGHPUT: &str = r#"{
  "battery_throughput": {"runs": 24, "cold_runs_per_s": 10.0, "cached_runs_per_s": 30.0, "speedup": 3.0}
}"#;

    const THROUGHPUT_BASELINE: &str = r#"{
  "battery_throughput": {"runs": 24, "cold_runs_per_s": 10.0, "cached_runs_per_s": 55.0, "speedup": 5.500}
}"#;

    fn throughput_gate(fresh: &Value, baseline: &str) -> Vec<Outcome> {
        let checks = RULES.iter().filter(|c| c.section == "battery_throughput");
        evaluate(fresh, &doc(baseline), checks)
    }

    #[test]
    fn throughput_gate_passes_above_the_floor() {
        let outcomes = throughput_gate(&doc(HEALTHY_THROUGHPUT), THROUGHPUT_BASELINE);
        assert_eq!(failures(&outcomes), []);
        assert_eq!(outcomes.len(), 4);
        let speedup = outcomes.iter().find(|o| o.path.ends_with("speedup"));
        assert_eq!(speedup.unwrap().bound, ">= 0.75");
    }

    #[test]
    fn throughput_gate_errors_below_the_floor() {
        let mut f = doc(HEALTHY_THROUGHPUT);
        set(
            &mut f,
            "battery_throughput",
            "speedup",
            Some(Value::Float(0.7)),
        );
        assert_eq!(
            failures(&throughput_gate(&f, THROUGHPUT_BASELINE)),
            [("floor", "battery_throughput.speedup", "0.7")]
        );
    }

    #[test]
    fn throughput_gate_errors_on_degenerate_arms() {
        for (key, value) in [
            ("runs", Value::Int(0)),
            ("cold_runs_per_s", Value::Float(0.0)),
            ("cached_runs_per_s", Value::Float(f64::NAN)),
        ] {
            let mut f = doc(HEALTHY_THROUGHPUT);
            set(&mut f, "battery_throughput", key, Some(value));
            assert_eq!(
                failures(&throughput_gate(&f, THROUGHPUT_BASELINE)).len(),
                1,
                "degenerate {key} must fail"
            );
        }
    }

    #[test]
    fn throughput_gate_errors_when_fresh_run_has_no_section() {
        // A fresh run without the experiment must fail rather than
        // silently skipping its own gate.
        let outcomes = throughput_gate(&doc(BASELINE), THROUGHPUT_BASELINE);
        assert_eq!(failures(&outcomes).len(), 4);
        assert!(outcomes.iter().all(|o| o.fresh == "missing"));
    }

    #[test]
    fn throughput_section_detection_and_skip_case() {
        // A baseline without the section (an old schema) does not disable
        // the throughput gate: the fresh experiment is gated regardless.
        let outcomes = throughput_gate(&doc(HEALTHY_THROUGHPUT), BASELINE);
        assert_eq!((outcomes.len(), failures(&outcomes).len()), (4, 0));
        assert_eq!(
            failures(&throughput_gate(&doc(BASELINE), BASELINE)).len(),
            4
        );
    }

    #[test]
    fn multi_core_entries_are_informational() {
        // The 2-core baseline entry exists but the fresh run reports it
        // far lower: must still pass (host-dependent row).
        let f = speedups(&[
            ("net8020_quick_1core", 2.0),
            ("net8020_paper_1core_100ms", 1.9),
            ("net8020_quick_2core", 0.1),
        ]);
        assert_eq!(
            failures(&gate(&f, BASELINE, "speedup_vs_seed", "relative")),
            []
        );
    }

    #[test]
    fn floor_gate_checks_only_headline_single_core_rows() {
        // Diagnostic (_norelax/_nosb/_nokernel) and multi-core rows are
        // exempt from the absolute floor even when they sit far below it;
        // the kernel-on relaxed row is headline and stays gated (twice:
        // the headline floor and its own 2.8x floor).
        let f = speedups(&[
            ("net8020_quick_1core", 2.2),
            ("net8020_quick_1core_norelax", 1.1),
            ("net8020_quick_1core_nosb", 0.9),
            ("net8020_quick_1core_relaxed", 3.5),
            ("net8020_quick_1core_relaxed_nokernel", 1.4),
            ("net8020_quick_2core", 1.2),
        ]);
        let outcomes = gate(&f, BASELINE, "speedup_vs_seed", "floor");
        assert_eq!(failures(&outcomes), []);
        let paths: Vec<_> = outcomes.iter().map(|o| o.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "speedup_vs_seed.net8020_quick_1core",
                "speedup_vs_seed.net8020_quick_1core_relaxed",
                "speedup_vs_seed.net8020_quick_1core_relaxed",
            ]
        );
    }

    fn kernel_gate(f: &Value) -> Vec<Outcome> {
        let mut outcomes = gate(f, BASELINE, "speedup_vs_seed", "ratio");
        let quick_floor = RULES
            .iter()
            .filter(|c| matches!(c.select, Keys(["net8020_quick_1core_relaxed"])));
        outcomes.extend(evaluate(f, &doc(BASELINE), quick_floor));
        outcomes
    }

    #[test]
    fn kernel_gate_passes_when_both_floors_clear() {
        let f = speedups(&[
            ("net8020_quick_1core", 2.2),
            ("net8020_quick_1core_relaxed", 3.5),
            ("net8020_quick_1core_relaxed_nokernel", 1.4),
            ("net8020_paper_1core_100ms_relaxed", 6.0),
            ("net8020_paper_1core_100ms_relaxed_nokernel", 2.1),
        ]);
        let outcomes = kernel_gate(&f);
        assert_eq!(failures(&outcomes), []);
        // One ratio outcome per on/off pair, carrying the on/off ratio,
        // and the quick row's own floor.
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].fresh, "2.500");
    }

    #[test]
    fn kernel_gate_errors_on_low_ratio_low_quick_row_or_missing_twin() {
        let quick = "speedup_vs_seed.net8020_quick_1core_relaxed";
        // On/off ratio below the kernel floor.
        let low_ratio = speedups(&[
            ("net8020_quick_1core_relaxed", 3.0),
            ("net8020_quick_1core_relaxed_nokernel", 2.9),
        ]);
        assert_eq!(
            failures(&kernel_gate(&low_ratio)),
            [("ratio", quick, "1.034")]
        );
        // Quick relaxed row below its absolute floor (ratio fine).
        let low_quick = speedups(&[
            ("net8020_quick_1core_relaxed", 2.0),
            ("net8020_quick_1core_relaxed_nokernel", 1.0),
        ]);
        assert_eq!(
            failures(&kernel_gate(&low_quick)),
            [("floor", quick, "2.0")]
        );
        // A kernel-on row without its nokernel twin cannot silently skip
        // the ratio check.
        let no_twin = speedups(&[("net8020_quick_1core_relaxed", 3.5)]);
        assert_eq!(
            failures(&kernel_gate(&no_twin)),
            [(
                "ratio",
                "speedup_vs_seed.net8020_quick_1core_relaxed_nokernel",
                "missing"
            )]
        );
        // No relaxed rows at all gates nothing — an error, not a pass —
        // and the gated quick row itself must exist.
        let none = speedups(&[("net8020_quick_1core", 2.2)]);
        let outcomes = kernel_gate(&none);
        assert_eq!(failures(&outcomes).len(), 2);
        assert_eq!(outcomes[0].fresh, "nothing gated");
        assert_eq!(
            (outcomes[1].path.as_str(), outcomes[1].fresh.as_str()),
            (quick, "missing")
        );
    }

    #[test]
    fn floor_gate_errors_below_the_floor_and_on_empty_gated_set() {
        let f = speedups(&[("net8020_quick_1core", 1.7)]);
        let headline = RULES
            .iter()
            .find(|c| matches!(c.rule, Floor(x) if x == 2.0));
        let outcomes = evaluate(&f, &doc(BASELINE), headline);
        assert_eq!(
            failures(&outcomes),
            [("floor", "speedup_vs_seed.net8020_quick_1core", "1.7")]
        );
        // A fresh run with no headline single-core rows gates nothing —
        // an error, not a vacuous pass.
        let diag_only = speedups(&[("net8020_quick_1core_nosb", 2.5)]);
        let outcomes = evaluate(&diag_only, &doc(BASELINE), headline);
        assert_eq!(failures(&outcomes).len(), 1);
        assert_eq!(outcomes[0].fresh, "nothing gated");
    }

    const INSTRET_BASELINE: &str = r#"{
  "instret_reduction": {
    "net8020_quick_1core": 0.0305,
    "net8020_paper_1core_100ms": 0.012
  }
}"#;

    fn instret(entries: &[(&str, f64)]) -> Value {
        let section = entries.iter().map(|&(k, v)| (k, Value::Float(v)));
        Value::object([("instret_reduction", Value::object(section))])
    }

    fn instret_gate(fresh: &Value, baseline: &str) -> Vec<Outcome> {
        let checks = RULES.iter().filter(|c| c.section == "instret_reduction");
        evaluate(fresh, &doc(baseline), checks)
    }

    #[test]
    fn instret_section_parses_and_is_detected() {
        let baseline = doc(INSTRET_BASELINE);
        let entries = entries(&baseline, "instret_reduction");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0], ("net8020_quick_1core", &Value::Float(0.0305)));
        // A baseline without the section (an old schema) fails the
        // presence check: there is nothing to gate against.
        let f = instret(&[("net8020_quick_1core", 0.031)]);
        let outcomes = instret_gate(&f, BASELINE);
        assert_eq!(failures(&outcomes).len(), 1);
        assert_eq!(outcomes[0].fresh, "nothing gated");
    }

    #[test]
    fn instret_gate_floors_the_quick_row_only() {
        // The paper shape relaxes less (its integration loops dominate);
        // it is presence-checked but not floored.
        let ok = instret(&[
            ("net8020_quick_1core", 0.031),
            ("net8020_paper_1core_100ms", 0.001),
        ]);
        let outcomes = instret_gate(&ok, INSTRET_BASELINE);
        assert_eq!(failures(&outcomes), []);
        assert_eq!(outcomes.len(), 3);

        let low = instret(&[
            ("net8020_quick_1core", 0.004),
            ("net8020_paper_1core_100ms", 0.012),
        ]);
        assert_eq!(
            failures(&instret_gate(&low, INSTRET_BASELINE)),
            [("floor", "instret_reduction.net8020_quick_1core", "0.004")]
        );
    }

    #[test]
    fn instret_gate_errors_on_missing_row_or_sectionless_baseline() {
        let f = instret(&[("net8020_quick_1core", 0.031)]);
        assert_eq!(
            failures(&instret_gate(&f, INSTRET_BASELINE)),
            [(
                "keys_present",
                "instret_reduction.net8020_paper_1core_100ms",
                "missing"
            )]
        );
        assert_eq!(failures(&instret_gate(&f, BASELINE)).len(), 1);
    }

    #[test]
    fn rules_gate_only_the_timed_sections() {
        // perf_baseline only times: its gate is the seed-comparison
        // speedup and instret rules and the template-throughput floors.
        let gated: Vec<_> = RULES.iter().map(|c| (c.section, c.rule.name())).collect();
        assert_eq!(
            gated,
            [
                ("speedup_vs_seed", "relative"),
                ("speedup_vs_seed", "floor"),
                ("speedup_vs_seed", "floor"),
                ("speedup_vs_seed", "ratio"),
                ("instret_reduction", "keys_present"),
                ("instret_reduction", "floor"),
                ("battery_throughput", "floor"),
                ("battery_throughput", "floor"),
                ("battery_throughput", "floor"),
            ]
        );
    }

    /// The committed baseline CI gates against.
    const BENCH_9: &str = include_str!("../../../BENCH_9.json");

    #[test]
    fn bench9_passes_against_itself_and_each_mutation_fails_by_name() {
        let bench9 = doc(BENCH_9);
        let outcomes = evaluate(&bench9, &bench9, RULES);
        assert_eq!(failures(&outcomes), []);
        assert_eq!(outcomes.len(), 24);

        type Mutation = Box<dyn Fn(&mut Value)>;
        let setf = |s: &'static str, k: &'static str, v: Value| -> Mutation {
            Box::new(move |d| set(d, s, k, Some(v.clone())))
        };
        let speed = |k: &'static str, v: f64| setf("speedup_vs_seed", k, Value::Float(v));
        let quick = "net8020_quick_1core";
        let cases: Vec<(Mutation, (&str, &str, &str))> = vec![
            (
                Box::new(|d| set(d, "speedup_vs_seed", "net8020_paper_1core_100ms_nosb", None)),
                (
                    "relative",
                    "speedup_vs_seed.net8020_paper_1core_100ms_nosb",
                    "missing",
                ),
            ),
            (
                Box::new(|d| {
                    let s = members(d).iter_mut().find(|(k, _)| k == "speedup_vs_seed");
                    members(&mut s.unwrap().1).retain(|(k, _)| !k.contains("_1core"));
                }),
                ("floor", "speedup_vs_seed[", "nothing gated"),
            ),
            (
                speed(quick, 2.291 * 0.5),
                ("relative", "speedup_vs_seed.net8020_quick_1core", "1.1455"),
            ),
            (
                speed("net8020_paper_1core_100ms", 1.9),
                ("floor", "speedup_vs_seed.net8020_paper_1core_100ms", "1.9"),
            ),
            (
                speed("net8020_quick_1core_relaxed", 2.7),
                (
                    "floor",
                    "speedup_vs_seed.net8020_quick_1core_relaxed",
                    "2.7",
                ),
            ),
            (
                Box::new(move |d| {
                    set(
                        d,
                        "speedup_vs_seed",
                        "net8020_paper_1core_100ms_relaxed_nokernel",
                        None,
                    )
                }),
                (
                    "ratio",
                    "speedup_vs_seed.net8020_paper_1core_100ms_relaxed_nokernel",
                    "missing",
                ),
            ),
            (
                speed("net8020_paper_1core_100ms_relaxed_nokernel", 8.842 / 1.2),
                (
                    "ratio",
                    "speedup_vs_seed.net8020_paper_1core_100ms_relaxed",
                    "1.200",
                ),
            ),
            (
                setf("instret_reduction", quick, Value::Float(0.02)),
                ("floor", "instret_reduction.net8020_quick_1core", "0.02"),
            ),
            (
                setf("battery_throughput", "speedup", Value::Float(0.7)),
                ("floor", "battery_throughput.speedup", "0.7"),
            ),
            (
                setf("battery_throughput", "runs", Value::Int(0)),
                ("floor", "battery_throughput.runs", "0"),
            ),
        ];
        let sections = [
            (
                "speedup_vs_seed",
                ("relative", "speedup_vs_seed.net8020_quick_1core", "missing"),
            ),
            (
                "instret_reduction",
                (
                    "keys_present",
                    "instret_reduction.net8020_quick_1core",
                    "missing",
                ),
            ),
            (
                "battery_throughput",
                ("floor", "battery_throughput.speedup", "missing"),
            ),
        ];
        let cases = cases.into_iter().chain(sections.map(|(section, want)| {
            let drop: Mutation = Box::new(move |d| members(d).retain(|(k, _)| k != section));
            (drop, want)
        }));
        for (mutate, (rule, path, fresh)) in cases {
            let mut f = bench9.clone();
            mutate(&mut f);
            let outcomes = evaluate(&f, &bench9, RULES);
            assert!(
                failures(&outcomes)
                    .iter()
                    .any(|&(r, p, v)| r == rule && p.starts_with(path) && v == fresh),
                "expected {rule} {path} = {fresh}, got {:#?}",
                failures(&outcomes)
            );
        }
    }
}
