//! Property suite for the scenario parameter surface: for random
//! parameter vectors of every registered scenario, quick and not,
//! `Scenario::validate` accepting a shape means the build and a budgeted
//! run finish with `Ok` or a `SimError` — never a panic — and rejecting
//! one means the message names a parameter. Random shapes stay small so
//! the builds are cheap; the scale-out memory bound, where validated
//! shapes used to panic, is pinned at its boundary with `validate` and
//! the engine's own memory sizing instead of 256 MiB images.

use std::panic::{catch_unwind, AssertUnwindSafe};

use izhi_bench::battery::SchedSpec;
use izhi_programs::engine::{EngineConfig, Variant};
use izhi_programs::layout;
use izhi_programs::scenario::{self, Scenario, ScenarioParams, Workload};
use izhi_programs::template;
use izhi_snn::Net8020;
use proptest::prelude::*;

/// Guest-cycle budget of each property run: enough to get every engine
/// past its set-up into the tick loop, short enough for the debug
/// profile.
const BUDGET: u64 = 200_000;

/// `None` (the scenario's value) a quarter of the time; otherwise mostly
/// a small value, and one time in eight a value at or past a validation
/// boundary.
fn field<T: Clone + 'static>(
    small: impl Strategy<Value = T> + 'static,
    edges: &'static [T],
) -> impl Strategy<Value = Option<T>> {
    (0u8..8, small, 0..edges.len()).prop_map(move |(kind, small, edge)| match kind {
        0 | 1 => None,
        7 => Some(edges[edge].clone()),
        _ => Some(small),
    })
}

fn params() -> impl Strategy<Value = ScenarioParams> {
    (
        field(
            1usize..300,
            &[0, 1024, 1025, 2048, 2049, 4096, 65535, 65536],
        ),
        field(1u32..60, &[0, 65535, 65536]),
        field(1u32..9, &[0, 16, 64, 65]),
        field(any::<u32>(), &[0]),
        field(any::<bool>(), &[true]),
        field(1u32..17, &[0, 4096, 4097]),
    )
        .prop_map(
            |(n, ticks, n_cores, seed, ease, stim_rate)| ScenarioParams {
                n,
                ticks,
                n_cores,
                seed,
                ease,
                stim_rate,
            },
        )
}

/// `p` without the fields `sc`'s schema does not list (`ScenarioParams`
/// spells `cores` as `n_cores`), so most vectors reach the build.
fn applicable(sc: &Scenario, p: ScenarioParams) -> ScenarioParams {
    let has = |name| sc.schema.iter().any(|s| s.name == name);
    let keep = |name, v: Option<u32>| v.filter(|_| has(name));
    ScenarioParams {
        n: p.n.filter(|_| has("n")),
        ticks: keep("ticks", p.ticks),
        n_cores: keep("cores", p.n_cores),
        seed: keep("seed", p.seed),
        ease: p.ease.filter(|_| has("ease")),
        stim_rate: keep("stim_rate", p.stim_rate),
    }
}

/// Whether `msg` names a scenario parameter: `name = …` or `` `name` ``
/// for some parameter of the registry's schemas.
fn names_a_parameter(msg: &str) -> bool {
    let mut names: Vec<&str> = scenario::registry()
        .iter()
        .flat_map(|s| s.schema.iter().map(|p| p.name))
        .collect();
    names.sort_unstable();
    names.dedup();
    names.iter().any(|name| {
        let assigned = format!("{name} = ");
        msg.contains(&format!("`{name}`"))
            || msg
                .match_indices(&assigned)
                .any(|(i, _)| !msg[..i].ends_with(|c: char| c.is_alphanumeric() || c == '_'))
    })
}

/// Judge one parameter vector: a validated shape builds and runs without
/// a panic under `spec`'s scheduler, through the construction path the
/// CLI and the service take; a rejected one names a parameter.
fn validate_then_run(sc: &'static Scenario, p: &ScenarioParams, quick: bool, spec: SchedSpec) {
    let what = format!("{} quick={quick} {p:?}", sc.name);
    match sc.validate(p, quick) {
        Err(e) => assert!(
            names_a_parameter(&e),
            "{what}: error names no parameter: {e}"
        ),
        Ok(()) => {
            let run = catch_unwind(AssertUnwindSafe(|| {
                let (wl, _) = template::instance(sc, p, quick, spec.mode);
                wl.run_budgeted(BUDGET).map(|_| ())
            }));
            // Every case is a new shape: keep the process-wide cache from
            // holding a snapshot of each.
            template::clear_cache();
            assert!(
                run.is_ok(),
                "{what} under {}: validated, then panicked",
                spec.label
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(800))]

    #[test]
    fn validated_shapes_run_and_rejected_ones_name_a_parameter(
        which in 0usize..64,
        quick in any::<bool>(),
        p in params(),
        stray in 0u8..8,
        sched in 0usize..16,
    ) {
        let registry = scenario::registry();
        let specs = SchedSpec::default_set(2);
        let sc = &registry[which % registry.len()];
        // One vector in eight keeps fields the scenario does not take.
        let p = if stray == 0 { p } else { applicable(sc, p) };
        validate_then_run(sc, &p, quick, specs[sched % specs.len()]);
    }
}

/// `(scenario, density, largest accepted n)` at the scenario's default
/// ticks and cores: the last shape whose SDRAM tables end below the
/// scratchpad on the scaled map.
const SCALE_OUT_BOUNDS: [(&str, f64, usize); 3] = [
    ("net8020_sharded", scenario::SHARDED_DENSITY, 54850),
    ("net8020_stdp", scenario::STDP_DENSITY, 24800),
    ("net8020_stream", scenario::STREAM_DENSITY, 24800),
];

#[test]
fn scale_out_shapes_past_the_scaled_map_are_refused_by_name() {
    // Each of these passed `validate`, then panicked laying out its
    // tables over the scratchpad.
    for (name, n, ticks, quick, named) in [
        (
            "net8020_sharded",
            40000,
            2000,
            false,
            "n = 40000 at ticks = 2000:",
        ),
        ("net8020_stdp", 28000, 5, false, "n = 28000:"),
        ("net8020_stream", 28742, 1, true, "n = 28742:"),
    ] {
        let sc = scenario::find(name).unwrap();
        let p = ScenarioParams::default().with_n(n).with_ticks(ticks);
        let err = sc.validate(&p, quick).unwrap_err();
        assert!(err.contains(named), "{name}: {err}");
    }
}

#[test]
fn scale_out_validation_stops_where_the_scaled_map_does() {
    for (name, density, largest) in SCALE_OUT_BOUNDS {
        let sc = scenario::find(name).unwrap();
        for (n, fits) in [(largest, true), (largest + 1, false)] {
            let p = ScenarioParams::default().with_n(n);
            match sc.validate(&p, false) {
                Ok(()) => assert!(fits, "{name}: n = {n} accepted past the map"),
                Err(e) => {
                    assert!(!fits, "{name}: n = {n} refused inside the map: {e}");
                    assert!(e.contains(&format!("{name}: n = {n}")), "{e}");
                }
            }
            // The engine's own memory sizing for the shape the build
            // would make agrees: SDRAM ends at the scratchpad or before.
            let ticks: u32 = param(sc, "ticks");
            let cores: u32 = param(sc, "cores");
            let mut cfg = EngineConfig::new(n, ticks, cores, Variant::Npu);
            cfg.fit_memory(n * Net8020::sparse_row_len(n, density));
            assert_eq!(
                cfg.system.sdram_size <= layout::SCRATCH,
                fits,
                "{name}: n = {n} sizes SDRAM to {:#x}",
                cfg.system.sdram_size
            );
        }
    }
}

/// A scenario's schema default for `name`.
fn param<T: std::str::FromStr>(sc: &Scenario, name: &str) -> T {
    let spec = sc.schema.iter().find(|p| p.name == name).unwrap();
    spec.default.parse().ok().unwrap()
}
