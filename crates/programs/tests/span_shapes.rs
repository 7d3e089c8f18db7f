//! Registration guard: which [`NativeShape`] each kernel span the engine
//! registers matched, pinned per registry scenario at its quick and its
//! default shape. The native tier only runs a span whose decoded body
//! matched a shape at registration, and a matcher that declines costs
//! speed, not correctness — so an assembler, peephole or engine change
//! that makes one decline would otherwise pass every identity test while
//! silently handing the loop back to the generic tier.

use izhi_programs::engine::prepare_run;
use izhi_programs::scenario::{self, ScenarioParams};
use izhi_sim::NativeShape;

/// `(scenario, [phase-A span, phase-B span])`, each the shape its span
/// matched or `-` for none. `net8020_softfloat` registers no span (its
/// phase B calls the soft-float library).
#[rustfmt::skip]
const PINNED: &[(&str, &[&str])] = &[
    ("net8020", &["DenseAxpy", "NpuNeuron"]),
    ("net8020_sweep", &["DenseAxpy", "NpuNeuron"]),
    ("sudoku", &["CsrScatter", "NpuNeuron"]),
    ("net8020_large", &["CsrScatter", "NpuNeuron"]),
    ("net8020_points", &["DenseAxpy", "NpuNeuron"]),
    ("net8020_basefixed", &["DenseAxpy", "-"]),
    ("net8020_softfloat", &[]),
    ("sudoku_batch", &["CsrScatter", "NpuNeuron"]),
    ("net8020_sharded", &["CsrScatter", "NpuNeuron"]),
    ("net8020_stdp", &["-", "NpuNeuron"]),
    ("net8020_stream", &["CsrScatter", "NpuNeuron"]),
];

fn shape_name(shape: Option<NativeShape>) -> &'static str {
    match shape {
        None => "-",
        Some(NativeShape::DenseAxpy { .. }) => "DenseAxpy",
        Some(NativeShape::NpuNeuron { .. }) => "NpuNeuron",
        Some(NativeShape::CsrScatter { .. }) => "CsrScatter",
    }
}

#[test]
fn every_registered_span_matches_its_pinned_native_shape() {
    let names: Vec<&str> = scenario::registry().iter().map(|s| s.name).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        names, pinned,
        "pin every registry scenario, in listing order"
    );
    for (sc, (_, expected)) in scenario::registry().iter().zip(PINNED) {
        for quick in [true, false] {
            let wl = if quick {
                sc.build_quick(&ScenarioParams::default())
            } else {
                sc.build(&ScenarioParams::default())
            };
            let run = prepare_run(wl.cfg(), wl.image());
            let got: Vec<&str> = run
                .code
                .kernel_spans()
                .iter()
                .map(|span| shape_name(span.native))
                .collect();
            assert_eq!(
                &got[..],
                *expected,
                "{} (quick: {quick}): native shapes of the registered spans",
                sc.name
            );
        }
    }
}
