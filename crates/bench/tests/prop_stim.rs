//! Property suite for the MMIO stimulus path: the injected schedule is a
//! *data* input, so for randomly generated stimulus plans — bursty,
//! duplicated, unordered — every scheduling mode must land on the same
//! physics. Exact, `Relaxed` and `RelaxedParallel` at host_threads
//! {1, 2, 4} must produce bit-identical raster hashes (and, with STDP
//! switched on, bit-identical final weight hashes): the stimulus drain
//! runs inside the tick's phase A, so neither quantum boundaries nor
//! host-thread commit order may leak into when a stimulus lands.

use izhi_programs::net8020::Net8020Workload;
use izhi_programs::scenario::Workload;
use izhi_sim::{SchedMode, StimPlan, TimingModel};
use izhi_snn::noise::XorShift32;

/// A deterministic but adversarial plan: random ticks in random order,
/// random target neurons, and a 25 % chance of duplicating an event
/// (double stimulus on one neuron-tick must also replay identically).
fn random_plan(seed: u32, ticks: u32, n: u32, chunk: u32, events: u32) -> StimPlan {
    let mut rng = XorShift32::new(seed);
    let mut plan = StimPlan::none();
    for _ in 0..events {
        let t = rng.next_u32() % ticks;
        let neuron = rng.next_u32() % n;
        plan = plan.with(t, neuron / chunk, neuron);
        if rng.next_u32().is_multiple_of(4) {
            plan = plan.with(t, neuron / chunk, neuron);
        }
    }
    plan
}

/// The mode set the property quantifies over: exact, and the relaxed
/// scheduler as `Relaxed` and at 1, 2 and 4 worker threads (Unit timing;
/// the clock cannot move a stimulus, only the schedule could).
fn modes() -> Vec<(String, SchedMode)> {
    let mut set = vec![
        ("exact".to_string(), SchedMode::Exact),
        ("relaxed".to_string(), SchedMode::relaxed()),
    ];
    for host_threads in [1u32, 2, 4] {
        set.push((
            format!("relaxed-par ht={host_threads}"),
            SchedMode::RelaxedParallel {
                quantum: SchedMode::DEFAULT_QUANTUM,
                host_threads,
                timing: TimingModel::Unit,
            },
        ));
    }
    set
}

/// Run `wl` under `sched` and return (raster hash, weight hash).
fn run_under(wl: &Net8020Workload, sched: SchedMode) -> (u64, Option<u64>) {
    let mut wl = wl.clone();
    wl.cfg.system.sched = sched;
    let res = wl.run().expect("stimulated run");
    (res.raster_hash(), res.weight_hash)
}

#[test]
fn random_stimulus_plans_are_schedule_invariant() {
    for trial in 0u32..4 {
        // A fresh noiseless streaming network per trial, its generated
        // plan replaced by an adversarial random one.
        let mut wl = Net8020Workload::stream(64, 16, 0.1, 120, 4, 40 + trial, 2);
        let chunk = wl.cfg.chunk() as u32;
        wl.cfg.system.stim = random_plan(0x9E37 ^ trial, 120, 80, chunk, 300);
        let reference = run_under(&wl, SchedMode::Exact);
        assert!(reference.1.is_none(), "not a plastic run");
        for (label, sched) in modes() {
            let got = run_under(&wl, sched);
            assert_eq!(
                got.0, reference.0,
                "trial {trial} / {label}: scheduling moved the stimulus"
            );
        }
    }
}

#[test]
fn random_stimulus_under_stdp_is_schedule_invariant() {
    // The hardest combination: injected stimulus *and* plastic weights.
    // A schedule-dependent stimulus would cascade into different spike
    // timing and therefore different weight evolution — so the final
    // weight hash is the most sensitive invariant available.
    for trial in 0u32..2 {
        let mut wl = Net8020Workload::stdp(64, 16, 0.2, 120, 2, 50 + trial);
        wl.cfg.stim = true;
        let chunk = wl.cfg.chunk() as u32;
        wl.cfg.system.stim = random_plan(0x51D1 ^ trial, 120, 80, chunk, 200);
        let reference = run_under(&wl, SchedMode::Exact);
        let initial = wl.initial_weight_hash.expect("plastic build");
        assert_ne!(
            reference.1,
            Some(initial),
            "trial {trial}: the stimulated plastic run must evolve weights"
        );
        for (label, sched) in modes() {
            let got = run_under(&wl, sched);
            assert_eq!(
                got.0, reference.0,
                "trial {trial} / {label}: scheduling moved the stimulus"
            );
            assert_eq!(
                got.1, reference.1,
                "trial {trial} / {label}: scheduling changed the weight evolution"
            );
        }
    }
}
