//! The scenario registry: one place that names every guest workload the
//! repo can run, builds it from a small common parameter set, runs it
//! under any [`SchedMode`](izhi_sim::SchedMode), and verifies the result.
//!
//! The registry exists so that the CLI (`izhirisc scenario list|run`), the
//! perf baseline, the paper-table generators, the service and the
//! differential test suites all drive workloads through **one**
//! definition per scenario instead of six hand-rolled call sites. Adding a
//! scenario means adding one [`Scenario`] entry (plus, usually, a
//! constructor in the workload module it describes) — every consumer picks
//! it up automatically.
//!
//! Three paper scenarios ship ([`net8020`, `net8020_sweep`, `sudoku`]) and
//! five go beyond the paper: a larger pruned 80-20 population on the
//! sparse phase-A walk (`net8020_large`), a per-core *parameter-point*
//! sweep (`net8020_points` — each core simulates a different point of a
//! noise/weight-gain grid, not just a different seed), the seed-indexed
//! Table-VI Sudoku batch (`sudoku_batch`) whose battery fan-out reproduces
//! the paper's multi-puzzle run, and the §VI-C arithmetic ablations as
//! first-class battery rows (`net8020_basefixed`, `net8020_softfloat` —
//! the same 80-20 network on the base-ISA fixed-point and soft-float
//! kernels, so the quick battery exercises all three `Variant`s).

use std::any::Any;

use izhi_sim::SimError;
use izhi_snn::gen8020::Net8020;
use izhi_snn::sudoku::{hard_puzzle, SudokuGrid};

use crate::engine::{run_workload, EngineConfig, GuestImage, Variant, WorkloadResult};
use crate::layout;
use crate::net8020::Net8020Workload;
use crate::sudoku_prog::SudokuWorkload;
use crate::sweep::{Net8020SweepWorkload, SweepPoint};

/// A runnable guest workload instance, as the registry hands it out.
///
/// The scheduling mode lives in the engine configuration
/// (`cfg_mut().system.sched`), so one built instance can be run under
/// `Exact`, `Relaxed` or `RelaxedParallel` without rebuilding the image.
///
/// Since the run-template redesign a workload may be backed by a cached,
/// copy-on-write build snapshot ([`crate::template::RunInstance`]): the
/// default [`Workload::run`]/[`Workload::run_budgeted`] then skip the
/// assembly/upload/predecode work, and [`Workload::run_cold`] remains the
/// from-scratch reference path for differential tests.
pub trait Workload: Send + Sync {
    /// Engine configuration of the instance.
    fn cfg(&self) -> &EngineConfig;
    /// Mutable configuration access (scheduling mode, cache geometry, …).
    fn cfg_mut(&mut self) -> &mut EngineConfig;
    /// The prepared guest memory image.
    ///
    /// Treat the image as **read-only** once the workload is built:
    /// template-backed runs start from a snapshot taken at build time, so
    /// mutating the image in place is not guaranteed to affect the next
    /// [`Workload::run`] (it only reliably feeds [`Workload::run_cold`]).
    /// Build a new workload (or a new [`crate::template::RunInstance`] at
    /// a different seed) instead.
    fn image(&self) -> &GuestImage;
    /// Clone into a fresh boxed workload (all registry workloads are
    /// plain data; the template cache clones its prototype per
    /// instantiation).
    fn clone_box(&self) -> Box<dyn Workload>;
    /// Cycle budget before the run is declared hung.
    fn max_cycles(&self) -> u64 {
        8_000_000_000
    }
    /// Run under an explicit guest-cycle budget (the supervisor's entry
    /// point). The default is the cold build-and-run path;
    /// template-backed workloads override it with the snapshot path.
    fn run_budgeted(&self, max_cycles: u64) -> Result<WorkloadResult, SimError> {
        run_workload(self.cfg(), self.image(), max_cycles)
    }
    /// Run under the configured scheduling mode (template-backed when the
    /// workload carries a snapshot, cold otherwise).
    fn run(&self) -> Result<WorkloadResult, SimError> {
        self.run_budgeted(self.max_cycles())
    }
    /// Assemble, load and run from scratch, bypassing any template
    /// snapshot — the reference path differential tests compare against.
    fn run_cold(&self) -> Result<WorkloadResult, SimError> {
        run_workload(self.cfg(), self.image(), self.max_cycles())
    }
    /// Self-verification hook: scenario-specific invariants of a result
    /// (raster sanity for the 80-20 family, per-population activity for
    /// the sweeps, the solved-grid check for Sudoku). Cross-sched-mode
    /// raster identity is the *battery runner's* job — this hook judges a
    /// single run.
    fn verify(&self, res: &WorkloadResult) -> Result<(), String>;
    /// Downcast access for consumers that need the concrete workload
    /// (e.g. Table VI decodes the Sudoku grid from the raster).
    fn as_any(&self) -> &dyn Any;
}

/// Common build parameters; `None` means the scenario's default. The
/// meaning of `n` is scenario-specific and documented in the scenario's
/// [`Scenario::schema`] (population size for the 80-20 family, per-core
/// population for sweeps, puzzle index for the Sudoku batch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ScenarioParams {
    /// Size/selector hint (see the scenario's schema).
    pub n: Option<usize>,
    /// Simulated 1 ms ticks.
    pub ticks: Option<u32>,
    /// Guest core count.
    pub n_cores: Option<u32>,
    /// Scenario seed (network/noise generation; sweep/batch index).
    pub seed: Option<u32>,
    /// Sudoku only: restore half the blanks from the classical solution
    /// so short tick budgets converge (defaults to the scenario's choice).
    pub ease: Option<bool>,
    /// `net8020_stream` only: injected stimulus events per tick.
    pub stim_rate: Option<u32>,
}

impl ScenarioParams {
    /// Builder-style override of `n`.
    pub fn with_n(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }

    /// Builder-style override of `ticks`.
    pub fn with_ticks(mut self, ticks: u32) -> Self {
        self.ticks = Some(ticks);
        self
    }

    /// Builder-style override of `n_cores`.
    pub fn with_cores(mut self, n_cores: u32) -> Self {
        self.n_cores = Some(n_cores);
        self
    }

    /// Builder-style override of `seed`.
    pub fn with_seed(mut self, seed: u32) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Builder-style override of `ease`.
    pub fn with_ease(mut self, ease: bool) -> Self {
        self.ease = Some(ease);
        self
    }

    /// Builder-style override of `stim_rate`.
    pub fn with_stim_rate(mut self, stim_rate: u32) -> Self {
        self.stim_rate = Some(stim_rate);
        self
    }

    /// Layer `self` over `defaults` field by field: any `Some` in `self`
    /// wins, `None` falls through. This is the one merge rule shared by
    /// [`Scenario::build_quick`] and the template path.
    pub fn merged(self, defaults: ScenarioParams) -> ScenarioParams {
        ScenarioParams {
            n: self.n.or(defaults.n),
            ticks: self.ticks.or(defaults.ticks),
            n_cores: self.n_cores.or(defaults.n_cores),
            seed: self.seed.or(defaults.seed),
            ease: self.ease.or(defaults.ease),
            stim_rate: self.stim_rate.or(defaults.stim_rate),
        }
    }
}

/// One named parameter of a scenario, for `scenario list` and docs.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// Parameter name as the CLI exposes it.
    pub name: &'static str,
    /// Default value — the only place a scenario's defaults are written
    /// (builds and [`Scenario::validate`] parse it). A rule rather than a
    /// value (`cores`, `seed % 5`) is derived by the scenario's builder.
    pub default: &'static str,
    /// One-line description.
    pub help: &'static str,
}

/// A registered scenario: name, parameter schema, builder, battery seeds.
pub struct Scenario {
    /// Registry key (also the CLI name).
    pub name: &'static str,
    /// One-line description for `scenario list`.
    pub summary: &'static str,
    /// Parameter schema with per-scenario defaults.
    pub schema: &'static [ParamSpec],
    /// CI-sized parameters: small enough that a full battery across
    /// scheduling modes stays in test-suite time.
    pub quick: ScenarioParams,
    /// Default seed set for a battery fan-out of this scenario.
    pub battery_seeds: &'static [u32],
    build_fn: fn(&ScenarioParams) -> Box<dyn Workload>,
}

impl Scenario {
    /// Build an instance; `None` parameters take the scenario defaults.
    pub fn build(&self, params: &ScenarioParams) -> Box<dyn Workload> {
        (self.build_fn)(&self.resolve(params, false))
    }

    /// Build at the CI-sized quick parameters, with `over` layered on top
    /// (any `Some` field in `over` wins).
    pub fn build_quick(&self, over: &ScenarioParams) -> Box<dyn Workload> {
        (self.build_fn)(&self.resolve(over, true))
    }

    /// The default parameters, parsed from the schema. Defaults the
    /// schema states as a rule stay `None` (see [`ParamSpec::default`]).
    fn defaults(&self) -> ScenarioParams {
        fn parse<T: std::str::FromStr>(schema: &[ParamSpec], name: &str) -> Option<T> {
            let spec = schema.iter().find(|p| p.name == name)?;
            spec.default.parse().ok()
        }
        let s = self.schema;
        ScenarioParams {
            n: parse(s, "n"),
            ticks: parse(s, "ticks"),
            n_cores: parse(s, "cores"),
            seed: parse(s, "seed"),
            ease: parse(s, "ease"),
            stim_rate: parse(s, "stim_rate"),
        }
    }

    /// The parameters a build from `given` actually uses: `given` layered
    /// over the quick parameters when `quick` is set, then over the
    /// scenario defaults.
    fn resolve(&self, given: &ScenarioParams, quick: bool) -> ScenarioParams {
        let base = if quick {
            self.quick.merged(self.defaults())
        } else {
            self.defaults()
        };
        given.merged(base)
    }

    /// Check the shape a run will actually build — `p` layered over the
    /// quick parameters when `quick` is set, then over the schema defaults
    /// — before any build work happens, so the CLI, the service and tests
    /// get a one-line error instead of a guest trap or a panic deep inside
    /// the engine.
    pub fn validate(&self, p: &ScenarioParams, quick: bool) -> Result<(), String> {
        let p = &self.resolve(p, quick);
        let density = scale_out_density(self.name);
        let scale_out = density.is_some();
        let sudoku = self.name.starts_with("sudoku");
        let per_core_n = matches!(self.name, "net8020_sweep" | "net8020_points");
        if let Some(c) = p.n_cores {
            if c == 0 || c > 64 {
                return Err(format!("cores = {c} outside 1..=64"));
            }
            if !scale_out && c > 8 {
                return Err(format!(
                    "{}: cores = {c} exceeds the standard memory map's 8 core slots \
                     (the scale-out scenarios net8020_sharded/stdp/stream run the scaled map)",
                    self.name
                ));
            }
        }
        if let Some(t) = p.ticks {
            if t == 0 || t >= 65536 {
                return Err(format!(
                    "ticks = {t} outside 1..65536 (spike-log timestamps are 16-bit)"
                ));
            }
        }
        if let Some(n) = p.n {
            if sudoku {
                // `n` is a puzzle index there; any usize is taken mod 5.
            } else if n == 0 {
                return Err("n = 0: a population needs at least one neuron".into());
            } else if n > 65535 {
                return Err(format!(
                    "n = {n} exceeds 65535 (spike words carry 16-bit neuron ids)"
                ));
            }
        }
        if p.ease.is_some() && !sudoku {
            // Silently dropping the flag would let `--ease false` "pass"
            // on a scenario that never reads it.
            return Err(format!(
                "{}: `ease` only applies to the sudoku scenarios (sudoku, sudoku_batch)",
                self.name
            ));
        }
        if let Some(r) = p.stim_rate {
            if self.name != "net8020_stream" {
                return Err(format!(
                    "{}: `stim_rate` only applies to net8020_stream",
                    self.name
                ));
            }
            if r == 0 || r > 4096 {
                return Err(format!("stim_rate = {r} outside 1..=4096 events per tick"));
            }
            // The build materialises one 12-byte plan entry per event, and
            // every template instance clones the plan.
            if let Some(t) = p.ticks {
                let events = u64::from(t) * u64::from(r);
                if events > MAX_STIM_EVENTS {
                    return Err(format!(
                        "ticks = {t} x stim_rate = {r} = {events} stimulus events exceeds \
                         {MAX_STIM_EVENTS} per run — lower ticks or stim_rate"
                    ));
                }
            }
        }
        // Standard-map scenarios: the spike segments bound the per-core
        // chunk, and the dense weight image bounds the total population.
        if !scale_out && !sudoku {
            if let (Some(n), Some(c)) = (p.n, p.n_cores) {
                let (total, per) = if per_core_n {
                    (n * c as usize, n)
                } else {
                    (n, n.div_ceil(c as usize))
                };
                if per > 1024 {
                    let shape = if per_core_n {
                        format!("n = {n} per core")
                    } else {
                        format!("n = {n} over cores = {c}")
                    };
                    return Err(format!(
                        "{}: {shape} gives a per-core chunk of {per}, beyond the standard \
                         map's 1024-slot spike segment — use more cores or the scale-out scenarios",
                        self.name
                    ));
                }
                let max = layout::max_dense_n(self.name == "net8020_softfloat");
                if total > max {
                    let shape = if per_core_n {
                        format!("n = {n} per core x cores = {c} = {total} neurons")
                    } else {
                        format!("n = {n}")
                    };
                    return Err(format!(
                        "{}: {shape} exceeds the {max} neurons whose dense weight tables \
                         fit the standard memory map (use net8020_sharded for larger populations)",
                        self.name
                    ));
                }
            }
        }
        // Scale-out scenarios: the noise table, the row pointers and the
        // CSR edges the build lays out in SDRAM must end below the
        // scratchpad (and, on the standard map, inside the edge window).
        // The generated population's synapse count bounds the edges the
        // image writes at every seed (it drops weights that quantise to
        // zero), and it is what the build sizes SDRAM for.
        if let (Some(d), Some(n), Some(t), Some(c)) = (density, p.n, p.ticks, p.n_cores) {
            let edges = n * Net8020::sparse_row_len(n, d);
            let end = |ticks| {
                let lay = layout::Layout::for_shape(n, ticks, c, n.div_ceil(c as usize));
                let limit = lay.edge_cap(layout::SCRATCH);
                (u64::from(lay.edges) + 4 * edges as u64, u64::from(limit))
            };
            let (sdram_end, limit) = end(t);
            if sdram_end > limit {
                // A shorter run shrinks only the noise table; name `ticks`
                // when that alone would make the shape fit.
                let (shape, fix) = if end(1).0 <= limit {
                    (format!("n = {n} at ticks = {t}"), "lower n or ticks")
                } else {
                    (format!("n = {n}"), "lower n")
                };
                return Err(format!(
                    "{}: {shape}: the noise table and up to {edges} CSR edges (density {d}) \
                     reach {sdram_end:#x}, past the SDRAM limit {limit:#x} — {fix}",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

/// Most stimulus events one `net8020_stream` run may schedule
/// (`ticks × stim_rate`): the plan is built up front, about 50 MB here.
const MAX_STIM_EVENTS: u64 = 1 << 22;

/// CSR connection density of `net8020_sharded`'s generated population,
/// shared by its builder and [`Scenario::validate`].
pub const SHARDED_DENSITY: f64 = 0.02;
/// CSR connection density of `net8020_stdp`'s generated population.
pub const STDP_DENSITY: f64 = 0.1;
/// CSR connection density of `net8020_stream`'s generated population.
pub const STREAM_DENSITY: f64 = 0.1;

/// The generated density of a scale-out scenario; `None` for every other
/// scenario.
fn scale_out_density(name: &str) -> Option<f64> {
    match name {
        "net8020_sharded" => Some(SHARDED_DENSITY),
        "net8020_stdp" => Some(STDP_DENSITY),
        "net8020_stream" => Some(STREAM_DENSITY),
        _ => None,
    }
}

/// Every registered scenario, in listing order.
pub fn registry() -> &'static [Scenario] {
    &REGISTRY
}

/// Look a scenario up by name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// Split a total 80-20 population into (n_exc, n_inh).
fn split_8020(n: usize) -> (usize, usize) {
    let n_exc = n * 4 / 5;
    (n_exc, n - n_exc)
}

static REGISTRY: [Scenario; 11] = [
    Scenario {
        name: "net8020",
        summary: "coupled 80-20 cortical network (paper Table V / Figs. 2-3)",
        schema: &[
            ParamSpec {
                name: "n",
                default: "1000",
                help: "total neurons (80 % excitatory)",
            },
            ParamSpec {
                name: "ticks",
                default: "1000",
                help: "simulated 1 ms steps",
            },
            ParamSpec {
                name: "cores",
                default: "2",
                help: "guest cores (contiguous chunks)",
            },
            ParamSpec {
                name: "seed",
                default: "5",
                help: "network + noise seed",
            },
        ],
        quick: ScenarioParams {
            n: Some(50),
            ticks: Some(150),
            n_cores: Some(2),
            seed: Some(5),
            ease: None,
            stim_rate: None,
        },
        battery_seeds: &[5, 6],
        build_fn: build_net8020,
    },
    Scenario {
        name: "net8020_sweep",
        summary: "barrier-light seed sweep: one independent 80-20 population per core",
        schema: &[
            ParamSpec {
                name: "n",
                default: "200",
                help: "neurons per core population",
            },
            ParamSpec {
                name: "ticks",
                default: "300",
                help: "simulated 1 ms steps",
            },
            ParamSpec {
                name: "cores",
                default: "2",
                help: "populations (= cores)",
            },
            ParamSpec {
                name: "seed",
                default: "5",
                help: "base seed (population k uses seed+k)",
            },
        ],
        quick: ScenarioParams {
            n: Some(50),
            ticks: Some(150),
            n_cores: Some(2),
            seed: Some(9),
            ease: None,
            stim_rate: None,
        },
        battery_seeds: &[5, 6],
        build_fn: build_net8020_sweep,
    },
    Scenario {
        name: "sudoku",
        summary: "729-neuron WTA Sudoku, canonical eased instance (paper Table VI)",
        schema: &[
            ParamSpec {
                name: "n",
                default: "0",
                help: "puzzle index into the hard corpus",
            },
            ParamSpec {
                name: "ticks",
                default: "2500",
                help: "simulated 1 ms steps (annealed search)",
            },
            ParamSpec {
                name: "cores",
                default: "2",
                help: "guest cores",
            },
            ParamSpec {
                name: "seed",
                default: "100",
                help: "noise seed",
            },
            ParamSpec {
                name: "ease",
                default: "true",
                help: "restore half the blanks so short budgets converge",
            },
        ],
        quick: ScenarioParams {
            n: Some(0),
            ticks: Some(120),
            n_cores: Some(2),
            seed: Some(100),
            ease: Some(true),
            stim_rate: None,
        },
        battery_seeds: &[100],
        build_fn: build_sudoku,
    },
    Scenario {
        name: "net8020_large",
        summary: "beyond-paper: 1280-neuron pruned 80-20 population on the sparse phase-A walk",
        schema: &[
            ParamSpec {
                name: "n",
                default: "1280",
                help: "total neurons (pruned to ~15 % density)",
            },
            ParamSpec {
                name: "ticks",
                default: "300",
                help: "simulated 1 ms steps",
            },
            ParamSpec {
                name: "cores",
                default: "2",
                help: "guest cores (chunk must stay <= 1024)",
            },
            ParamSpec {
                name: "seed",
                default: "7",
                help: "network + noise seed",
            },
        ],
        quick: ScenarioParams {
            n: Some(160),
            ticks: Some(150),
            n_cores: Some(2),
            seed: Some(7),
            ease: None,
            stim_rate: None,
        },
        battery_seeds: &[7, 8],
        build_fn: build_net8020_large,
    },
    Scenario {
        name: "net8020_points",
        summary:
            "beyond-paper: per-core parameter points (noise x weight gain grid, not just seeds)",
        schema: &[
            ParamSpec {
                name: "n",
                default: "200",
                help: "neurons per core population",
            },
            ParamSpec {
                name: "ticks",
                default: "300",
                help: "simulated 1 ms steps",
            },
            ParamSpec {
                name: "cores",
                default: "2",
                help: "parameter points (= cores)",
            },
            ParamSpec {
                name: "seed",
                default: "11",
                help: "shared network seed of every point",
            },
        ],
        quick: ScenarioParams {
            n: Some(50),
            ticks: Some(150),
            n_cores: Some(2),
            seed: Some(11),
            ease: None,
            stim_rate: None,
        },
        battery_seeds: &[11, 12],
        build_fn: build_net8020_points,
    },
    Scenario {
        name: "net8020_basefixed",
        summary: "80-20 network on the base-ISA fixed-point kernel (§VI-C ablation, no custom ops)",
        schema: &[
            ParamSpec {
                name: "n",
                default: "1000",
                help: "total neurons (80 % excitatory)",
            },
            ParamSpec {
                name: "ticks",
                default: "300",
                help: "simulated 1 ms steps",
            },
            ParamSpec {
                name: "cores",
                default: "2",
                help: "guest cores (contiguous chunks)",
            },
            ParamSpec {
                name: "seed",
                default: "5",
                help: "network + noise seed",
            },
        ],
        quick: ScenarioParams {
            n: Some(50),
            ticks: Some(150),
            n_cores: Some(2),
            seed: Some(5),
            ease: None,
            stim_rate: None,
        },
        battery_seeds: &[5],
        build_fn: build_net8020_basefixed,
    },
    Scenario {
        name: "net8020_softfloat",
        summary:
            "80-20 network on the soft-float kernel (§VI-C baseline, IEEE-754 via library calls)",
        schema: &[
            ParamSpec {
                name: "n",
                default: "200",
                help: "total neurons (80 % excitatory)",
            },
            ParamSpec {
                name: "ticks",
                default: "300",
                help: "simulated 1 ms steps (long runs cycle the f32 noise window)",
            },
            ParamSpec {
                name: "cores",
                default: "2",
                help: "guest cores (contiguous chunks)",
            },
            ParamSpec {
                name: "seed",
                default: "5",
                help: "network + noise seed",
            },
        ],
        quick: ScenarioParams {
            n: Some(50),
            ticks: Some(120),
            n_cores: Some(2),
            seed: Some(5),
            ease: None,
            stim_rate: None,
        },
        battery_seeds: &[5],
        build_fn: build_net8020_softfloat,
    },
    Scenario {
        name: "sudoku_batch",
        summary: "beyond-paper: seed-indexed Table-VI Sudoku batch (battery fans puzzles out)",
        schema: &[
            ParamSpec {
                name: "n",
                default: "seed % 5",
                help: "puzzle index into the hard corpus",
            },
            ParamSpec {
                name: "ticks",
                default: "2500",
                help: "simulated 1 ms steps per puzzle",
            },
            ParamSpec {
                name: "cores",
                default: "2",
                help: "guest cores",
            },
            ParamSpec {
                name: "seed",
                default: "0",
                help: "batch index: puzzle seed%5, noise seed 100+seed",
            },
            ParamSpec {
                name: "ease",
                default: "true",
                help: "restore half the blanks so short budgets converge",
            },
        ],
        quick: ScenarioParams {
            n: None,
            ticks: Some(120),
            n_cores: Some(2),
            seed: Some(0),
            ease: Some(true),
            stim_rate: None,
        },
        battery_seeds: &[0, 1, 2, 3, 4],
        build_fn: build_sudoku_batch,
    },
    Scenario {
        name: "net8020_sharded",
        summary:
            "beyond-paper scale-out: CSR-native sparse 80-20 population sharded across 8-64 cores",
        schema: &[
            ParamSpec {
                name: "n",
                default: "10240",
                help: "total neurons (80 % excitatory, generated directly in CSR)",
            },
            ParamSpec {
                name: "ticks",
                default: "200",
                help: "simulated 1 ms steps",
            },
            ParamSpec {
                name: "cores",
                default: "16",
                help: "guest cores on the scaled memory map (up to 64)",
            },
            ParamSpec {
                name: "seed",
                default: "17",
                help: "network + noise seed",
            },
        ],
        quick: ScenarioParams {
            n: Some(512),
            ticks: Some(100),
            n_cores: Some(16),
            seed: Some(17),
            ease: None,
            stim_rate: None,
        },
        battery_seeds: &[17, 18],
        build_fn: build_net8020_sharded,
    },
    Scenario {
        name: "net8020_stdp",
        summary:
            "beyond-paper: sparse 80-20 population with delivery-time STDP (weights evolve in-run)",
        schema: &[
            ParamSpec {
                name: "n",
                default: "1024",
                help: "total neurons (80 % excitatory, generated directly in CSR)",
            },
            ParamSpec {
                name: "ticks",
                default: "400",
                help: "simulated 1 ms steps",
            },
            ParamSpec {
                name: "cores",
                default: "4",
                help: "guest cores (scaled map beyond 8)",
            },
            ParamSpec {
                name: "seed",
                default: "21",
                help: "network + noise seed",
            },
        ],
        quick: ScenarioParams {
            n: Some(160),
            ticks: Some(150),
            n_cores: Some(2),
            seed: Some(21),
            ease: None,
            stim_rate: None,
        },
        battery_seeds: &[21, 22],
        build_fn: build_net8020_stdp,
    },
    Scenario {
        name: "net8020_stream",
        summary:
            "beyond-paper: noiseless sparse 80-20 population driven by a streamed MMIO stimulus",
        schema: &[
            ParamSpec {
                name: "n",
                default: "400",
                help: "total neurons (80 % excitatory, generated directly in CSR)",
            },
            ParamSpec {
                name: "ticks",
                default: "400",
                help: "simulated 1 ms steps",
            },
            ParamSpec {
                name: "cores",
                default: "4",
                help: "guest cores (scaled map beyond 8)",
            },
            ParamSpec {
                name: "seed",
                default: "31",
                help: "network seed; stimulus schedule derives from seed ^ 0x57D1",
            },
            ParamSpec {
                name: "stim_rate",
                default: "8",
                help: "injected stimulus events per tick",
            },
        ],
        quick: ScenarioParams {
            n: Some(80),
            ticks: Some(150),
            n_cores: Some(2),
            seed: Some(31),
            ease: None,
            stim_rate: Some(4),
        },
        battery_seeds: &[31, 32],
        build_fn: build_net8020_stream,
    },
];

/// A parameter the schema gives a default value for: always `Some` in the
/// resolved parameters every builder receives (`Scenario::resolve`).
fn req<T>(v: Option<T>) -> T {
    v.expect("builders receive parameters resolved over the schema defaults")
}

fn build_net8020(p: &ScenarioParams) -> Box<dyn Workload> {
    let (n_exc, n_inh) = split_8020(req(p.n));
    Box::new(Net8020Workload::sized(
        n_exc,
        n_inh,
        req(p.ticks),
        req(p.n_cores),
        req(p.seed),
        Variant::Npu,
    ))
}

fn build_net8020_sweep(p: &ScenarioParams) -> Box<dyn Workload> {
    let (n_exc, n_inh) = split_8020(req(p.n));
    Box::new(Net8020SweepWorkload::sized(
        n_exc,
        n_inh,
        req(p.ticks),
        req(p.n_cores),
        req(p.seed),
    ))
}

fn build_net8020_basefixed(p: &ScenarioParams) -> Box<dyn Workload> {
    let (n_exc, n_inh) = split_8020(req(p.n));
    Box::new(Net8020Workload::sized(
        n_exc,
        n_inh,
        req(p.ticks),
        req(p.n_cores),
        req(p.seed),
        Variant::BaseFixed,
    ))
}

fn build_net8020_softfloat(p: &ScenarioParams) -> Box<dyn Workload> {
    // The f32 weight mirror bounds the population (`Scenario::validate`);
    // the f32 noise mirror holds as many ticks as its SDRAM window fits,
    // and longer runs cycle it.
    let (n_exc, n_inh) = split_8020(req(p.n));
    Box::new(Net8020Workload::sized(
        n_exc,
        n_inh,
        req(p.ticks),
        req(p.n_cores),
        req(p.seed),
        Variant::SoftFloat,
    ))
}

fn build_net8020_large(p: &ScenarioParams) -> Box<dyn Workload> {
    let (n_exc, n_inh) = split_8020(req(p.n));
    Box::new(Net8020Workload::sized_sparse(
        n_exc,
        n_inh,
        req(p.ticks),
        req(p.n_cores),
        req(p.seed),
        0.15,
    ))
}

fn build_net8020_points(p: &ScenarioParams) -> Box<dyn Workload> {
    let (n_exc, n_inh) = split_8020(req(p.n));
    let n_cores = req(p.n_cores);
    let seed = req(p.seed);
    // A small grid through (thalamic-noise gain, excitatory-weight gain):
    // every core simulates one parameter point of the same seeded network.
    let points: Vec<SweepPoint> = (0..n_cores)
        .map(|k| SweepPoint {
            seed,
            noise_gain: 0.8 + 0.2 * k as f64,
            weight_gain: 1.1 - 0.1 * k as f64,
        })
        .collect();
    Box::new(Net8020SweepWorkload::with_points(
        n_exc,
        n_inh,
        req(p.ticks),
        &points,
    ))
}

/// Ease a puzzle by restoring half its blanks from the classical solution
/// (the quick-scale Table VI flow used across the repo).
pub fn eased(mut puzzle: SudokuGrid) -> SudokuGrid {
    let sol = puzzle.solve().expect("classical solver");
    for i in (0..81).step_by(2) {
        if puzzle.0[i] == 0 {
            puzzle.0[i] = sol.0[i];
        }
    }
    puzzle
}

fn sudoku_instance(
    puzzle_idx: usize,
    ease: bool,
    ticks: u32,
    n_cores: u32,
    seed: u32,
) -> SudokuWorkload {
    let mut puzzle = hard_puzzle(puzzle_idx % 5);
    if ease {
        puzzle = eased(puzzle);
    }
    SudokuWorkload::new(puzzle, ticks, n_cores, seed)
}

fn build_sudoku(p: &ScenarioParams) -> Box<dyn Workload> {
    Box::new(sudoku_instance(
        req(p.n),
        req(p.ease),
        req(p.ticks),
        req(p.n_cores),
        req(p.seed),
    ))
}

fn build_sudoku_batch(p: &ScenarioParams) -> Box<dyn Workload> {
    let seed = req(p.seed);
    Box::new(sudoku_instance(
        p.n.unwrap_or(seed as usize % 5),
        req(p.ease),
        req(p.ticks),
        req(p.n_cores),
        100 + seed,
    ))
}

fn build_net8020_sharded(p: &ScenarioParams) -> Box<dyn Workload> {
    let (n_exc, n_inh) = split_8020(req(p.n));
    Box::new(Net8020Workload::sharded(
        n_exc,
        n_inh,
        SHARDED_DENSITY,
        req(p.ticks),
        req(p.n_cores),
        req(p.seed),
    ))
}

fn build_net8020_stdp(p: &ScenarioParams) -> Box<dyn Workload> {
    let (n_exc, n_inh) = split_8020(req(p.n));
    Box::new(Net8020Workload::stdp(
        n_exc,
        n_inh,
        STDP_DENSITY,
        req(p.ticks),
        req(p.n_cores),
        req(p.seed),
    ))
}

fn build_net8020_stream(p: &ScenarioParams) -> Box<dyn Workload> {
    let (n_exc, n_inh) = split_8020(req(p.n));
    Box::new(Net8020Workload::stream(
        n_exc,
        n_inh,
        STREAM_DENSITY,
        req(p.ticks),
        req(p.n_cores),
        req(p.seed),
        req(p.stim_rate),
    ))
}

/// Raster bounds check shared by every verification: spikes exist and
/// their (tick, neuron) coordinates are inside the run's grid.
fn verify_raster_bounds(cfg: &EngineConfig, res: &WorkloadResult) -> Result<(), String> {
    if res.raster.spikes.is_empty() {
        return Err("raster is empty".into());
    }
    for &(t, n) in &res.raster.spikes {
        if n as usize >= cfg.n || t >= cfg.ticks {
            return Err(format!("spike ({t}, {n}) outside {}x{}", cfg.ticks, cfg.n));
        }
    }
    Ok(())
}

/// Shared raster sanity for the 80-20 family: spikes exist, indices are in
/// range, and the mean rate is in a (very wide) cortical band.
fn verify_raster(cfg: &EngineConfig, res: &WorkloadResult) -> Result<(), String> {
    verify_raster_bounds(cfg, res)?;
    let rate = res.raster.mean_rate_hz();
    if !(0.05..=500.0).contains(&rate) {
        return Err(format!("mean rate {rate:.2} Hz outside the plausible band"));
    }
    Ok(())
}

impl Workload for Net8020Workload {
    fn cfg(&self) -> &EngineConfig {
        &self.cfg
    }

    fn cfg_mut(&mut self) -> &mut EngineConfig {
        &mut self.cfg
    }

    fn image(&self) -> &GuestImage {
        &self.image
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn verify(&self, res: &WorkloadResult) -> Result<(), String> {
        if self.stream {
            // All drive is injected stimulus: the cortical-rate band does
            // not apply, but the raster must still be sane.
            verify_raster_bounds(&self.cfg, res)?;
        } else {
            verify_raster(&self.cfg, res)?;
        }
        if self.cfg.plastic {
            let h = res
                .weight_hash
                .ok_or("plastic run reported no weight hash")?;
            if Some(h) == self.initial_weight_hash {
                return Err(format!(
                    "weights never evolved: final hash {h:#018x} equals the initial hash"
                ));
            }
        }
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Workload for Net8020SweepWorkload {
    fn cfg(&self) -> &EngineConfig {
        &self.cfg
    }

    fn cfg_mut(&mut self) -> &mut EngineConfig {
        &mut self.cfg
    }

    fn image(&self) -> &GuestImage {
        &self.image
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn verify(&self, res: &WorkloadResult) -> Result<(), String> {
        verify_raster(&self.cfg, res)?;
        // Block-diagonal correctness: every population must be active.
        for k in 0..self.points.len() {
            if self.population_spikes(res, k).is_empty() {
                return Err(format!("population {k} produced no spikes"));
            }
        }
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Workload for SudokuWorkload {
    fn cfg(&self) -> &EngineConfig {
        &self.cfg
    }

    fn cfg_mut(&mut self) -> &mut EngineConfig {
        &mut self.cfg
    }

    fn image(&self) -> &GuestImage {
        &self.image
    }

    fn clone_box(&self) -> Box<dyn Workload> {
        Box::new(self.clone())
    }

    fn max_cycles(&self) -> u64 {
        2_000_000_000_000
    }

    fn verify(&self, res: &WorkloadResult) -> Result<(), String> {
        verify_raster(&self.cfg, res)?;
        let (solution, _) = self.decode(res, 50);
        match solution {
            Some(grid) if !grid.extends(&self.puzzle) => {
                Err("decoded grid contradicts the puzzle's givens".into())
            }
            // The annealed WTA search needs a real tick budget to converge;
            // below it, an active raster is all a single run can promise.
            None if self.cfg.ticks >= 2000 => {
                Err(format!("did not converge in {} ticks", self.cfg.ticks))
            }
            _ => Ok(()),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_complete() {
        let names: Vec<_> = registry().iter().map(|s| s.name).collect();
        assert!(names.len() >= 6, "registry shrank: {names:?}");
        for (i, a) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(a), "duplicate scenario {a}");
        }
        for paper in ["net8020", "net8020_sweep", "sudoku"] {
            assert!(names.contains(&paper), "paper scenario {paper} missing");
        }
        for s in registry() {
            assert!(!s.schema.is_empty(), "{}: empty schema", s.name);
            assert!(!s.battery_seeds.is_empty(), "{}: no battery seeds", s.name);
        }
    }

    #[test]
    fn merged_layers_overrides_over_defaults() {
        let defaults = ScenarioParams::default()
            .with_n(100)
            .with_ticks(200)
            .with_cores(2)
            .with_seed(5)
            .with_ease(true);
        let over = ScenarioParams::default().with_ticks(50).with_ease(false);
        let m = over.merged(defaults);
        assert_eq!(m.n, Some(100), "None falls through to the default");
        assert_eq!(m.ticks, Some(50), "Some overrides");
        assert_eq!(m.n_cores, Some(2));
        assert_eq!(m.seed, Some(5));
        assert_eq!(m.ease, Some(false), "with_ease(false) is a real override");
        // Merging with empty defaults is the identity.
        assert_eq!(m.merged(ScenarioParams::default()), m);
    }

    #[test]
    fn params_override_defaults() {
        let s = find("net8020").unwrap();
        let wl = s.build(
            &ScenarioParams::default()
                .with_n(50)
                .with_ticks(40)
                .with_cores(1)
                .with_seed(3),
        );
        assert_eq!(wl.cfg().n, 50);
        assert_eq!(wl.cfg().ticks, 40);
        assert_eq!(wl.cfg().n_cores, 1);
    }

    #[test]
    fn quick_build_runs_and_verifies() {
        for name in ["net8020", "net8020_sweep", "net8020_points"] {
            let s = find(name).unwrap();
            let wl = s.build_quick(&ScenarioParams::default());
            let res = wl.run().unwrap_or_else(|e| panic!("{name}: {e}"));
            wl.verify(&res).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn registry_covers_every_arithmetic_variant() {
        // The mixed-variant battery rows: the same 80-20 network under
        // each kernel arithmetic, one registry entry per variant.
        for (name, variant) in [
            ("net8020", Variant::Npu),
            ("net8020_basefixed", Variant::BaseFixed),
            ("net8020_softfloat", Variant::SoftFloat),
        ] {
            let s = find(name).unwrap_or_else(|| panic!("{name} missing"));
            let wl = s.build_quick(&ScenarioParams::default());
            assert_eq!(wl.cfg().variant, variant, "{name}");
            let res = wl.run().unwrap_or_else(|e| panic!("{name}: {e}"));
            wl.verify(&res).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn large_scenario_uses_the_sparse_walk() {
        let s = find("net8020_large").unwrap();
        let wl = s.build_quick(&ScenarioParams::default());
        assert!(wl.cfg().sparse, "large scenario must use the CSR walk");
        let res = wl.run().unwrap();
        wl.verify(&res).unwrap();
    }

    #[test]
    fn point_sweep_points_differ_per_core() {
        let s = find("net8020_points").unwrap();
        let wl = s.build_quick(&ScenarioParams::default());
        let sweep = wl
            .as_any()
            .downcast_ref::<Net8020SweepWorkload>()
            .expect("points scenario wraps the sweep workload");
        let res = wl.run().unwrap();
        let a = sweep.population_spikes(&res, 0);
        let b = sweep.population_spikes(&res, 1);
        // Same seed, different parameter points => different dynamics.
        assert_ne!(a, b, "parameter points did not change the dynamics");
    }

    #[test]
    fn scale_out_scenarios_run_and_verify() {
        for name in ["net8020_sharded", "net8020_stdp", "net8020_stream"] {
            let s = find(name).unwrap_or_else(|| panic!("{name} missing"));
            let wl = s.build_quick(&ScenarioParams::default());
            assert!(wl.cfg().sparse, "{name}: scale-out builds are CSR-native");
            let res = wl.run().unwrap_or_else(|e| panic!("{name}: {e}"));
            wl.verify(&res).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn sharded_quick_crosses_the_standard_map() {
        let s = find("net8020_sharded").unwrap();
        let wl = s.build_quick(&ScenarioParams::default());
        assert!(
            wl.cfg().n_cores >= 16,
            "quick shape must exercise the scaled memory map (got {} cores)",
            wl.cfg().n_cores
        );
    }

    #[test]
    fn stdp_scenario_reports_an_evolved_weight_hash() {
        let s = find("net8020_stdp").unwrap();
        let wl = s.build_quick(&ScenarioParams::default());
        assert!(wl.cfg().plastic);
        let initial = wl
            .as_any()
            .downcast_ref::<Net8020Workload>()
            .unwrap()
            .initial_weight_hash
            .expect("plastic build records the initial hash");
        let res = wl.run().unwrap();
        let h = res.weight_hash.expect("plastic run reports a weight hash");
        assert_ne!(h, initial, "weights must evolve during the run");
        wl.verify(&res).unwrap();
    }

    #[test]
    fn stream_scenario_spikes_without_noise_or_bias() {
        let s = find("net8020_stream").unwrap();
        let wl = s.build_quick(&ScenarioParams::default());
        assert!(wl.cfg().stim);
        assert!(!wl.cfg().system.stim.is_empty(), "stimulus plan installed");
        let res = wl.run().unwrap();
        assert!(
            !res.raster.spikes.is_empty(),
            "injected stimulus must drive spikes"
        );
        wl.verify(&res).unwrap();
    }

    #[test]
    fn validate_rejects_inconsistent_combinations() {
        let sharded = find("net8020_sharded").unwrap();
        // cores beyond the spike-table core slots, even on the scaled map.
        let err = sharded
            .validate(&ScenarioParams::default().with_cores(65), false)
            .unwrap_err();
        assert!(err.contains("cores = 65"), "unclear error: {err}");
        // stim_rate on a non-stream scenario.
        assert!(sharded
            .validate(&ScenarioParams::default().with_stim_rate(4), false)
            .is_err());
        // A stimulus plan of 268M events (about 3.2 GB) is refused by
        // both of the parameters that size it; the bound is inclusive.
        let stream = find("net8020_stream").unwrap();
        let err = stream
            .validate(
                &ScenarioParams::default()
                    .with_ticks(65535)
                    .with_stim_rate(4096),
                false,
            )
            .unwrap_err();
        assert!(
            err.contains("ticks = 65535") && err.contains("stim_rate = 4096"),
            "unclear error: {err}"
        );
        let at_bound = ScenarioParams::default()
            .with_ticks(1024)
            .with_stim_rate(4096);
        stream.validate(&at_bound, false).unwrap();
        assert!(stream.validate(&at_bound.with_ticks(1025), false).is_err());
        let dense = find("net8020").unwrap();
        // ease on a non-sudoku scenario: either polarity is rejected (it
        // would otherwise be dropped silently), and the error names the
        // scenarios it does apply to.
        let err = dense
            .validate(&ScenarioParams::default().with_ease(false), false)
            .unwrap_err();
        assert!(err.contains("sudoku"), "unclear error: {err}");
        assert!(dense
            .validate(&ScenarioParams::default().with_ease(true), false)
            .is_err());
        assert!(sharded
            .validate(&ScenarioParams::default().with_ease(true), false)
            .is_err());
        for name in ["sudoku", "sudoku_batch"] {
            let s = find(name).unwrap();
            s.validate(&ScenarioParams::default().with_ease(false), false)
                .unwrap();
            s.validate(&ScenarioParams::default().with_ease(true), false)
                .unwrap();
        }
        // Standard-map scenarios cannot cross the 8-core / dense-table /
        // 1024-chunk bounds.
        let err = dense
            .validate(&ScenarioParams::default().with_cores(16), false)
            .unwrap_err();
        assert!(err.contains("standard memory map"), "unclear error: {err}");
        assert!(dense
            .validate(&ScenarioParams::default().with_n(10240), false)
            .is_err());
        assert!(dense
            .validate(&ScenarioParams::default().with_n(4000).with_cores(2), false)
            .is_err());
        // Generic bounds.
        assert!(dense
            .validate(&ScenarioParams::default().with_ticks(0), false)
            .is_err());
        assert!(dense
            .validate(&ScenarioParams::default().with_ticks(70000), false)
            .is_err());
        assert!(dense
            .validate(&ScenarioParams::default().with_cores(0), false)
            .is_err());
        // The shape the run builds is judged, defaults and quick params
        // included: each of these leaves the standard map's 1024-slot
        // chunk only through a field the caller did not give.
        let large = find("net8020_large").unwrap();
        for (sc, p, quick) in [
            (large, ScenarioParams::default().with_cores(1), false),
            (large, ScenarioParams::default().with_n(3000), false),
            (dense, ScenarioParams::default().with_n(3000), true),
        ] {
            let err = sc.validate(&p, quick).unwrap_err();
            assert!(err.contains("per-core chunk"), "{}: {err}", sc.name);
        }
        // Shapes whose dense weight tables would overrun the next written
        // region: rejected, and the error names `n`.
        let shape = |n: usize, cores: u32, ticks: u32| {
            ScenarioParams::default()
                .with_n(n)
                .with_cores(cores)
                .with_ticks(ticks)
        };
        for (name, p) in [
            ("net8020", shape(4096, 8, 1)),
            ("net8020_sweep", shape(512, 8, 2)),
            ("net8020", shape(3000, 4, 20)),
            ("net8020_softfloat", shape(1100, 2, 5)),
        ] {
            let err = find(name).unwrap().validate(&p, false).unwrap_err();
            assert!(
                err.contains(&format!("n = {}", p.n.unwrap())) && err.contains("dense weight"),
                "{name}: {err}"
            );
        }
        // A soft-float run longer than its f32 noise window is valid: the
        // mirror and the guest's NOISE_TICKS_F32 both stop at the window.
        let soft = find("net8020_softfloat").unwrap();
        let long = ScenarioParams::default().with_ticks(4000);
        soft.validate(&long, false).unwrap();
        let wl = assert_prepares_disjoint(soft, &long);
        assert!(matches!(
            wl.run_budgeted(100_000),
            Err(izhi_sim::SimError::Timeout { .. })
        ));
    }

    /// Build `p` and lay it out with `prepare_run`, which refuses
    /// overlapping spans; check here too that every span written is
    /// disjoint from the next.
    fn assert_prepares_disjoint(sc: &Scenario, p: &ScenarioParams) -> Box<dyn Workload> {
        let wl = sc.build(p);
        let prep = crate::engine::prepare_run(wl.cfg(), wl.image());
        let mut spans: Vec<(u32, u32)> = prep.prog_spans.spans().to_vec();
        spans.extend_from_slice(prep.image_spans.spans());
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(
                u64::from(w[0].0) + u64::from(w[0].1) <= u64::from(w[1].0),
                "{}: span {:#x?} overlaps {:#x?}",
                sc.name,
                w[0],
                w[1]
            );
        }
        wl
    }

    #[test]
    fn dense_population_bounds_are_the_layout_windows() {
        // The Q7.8 table (2 B per weight at WEIGHTS) ends exactly at
        // NOISE for n = 2048; soft-float's f32 mirror (4 B per weight at
        // WEIGHTS_F32) ends exactly at NOISE for n = 1024.
        let at = |n: usize, cores: u32| {
            ScenarioParams::default()
                .with_n(n)
                .with_cores(cores)
                .with_ticks(1)
        };
        for (name, max, cores) in [
            ("net8020", 2048, 4),
            ("net8020_basefixed", 2048, 4),
            ("net8020_large", 2048, 4),
            ("net8020_softfloat", 1024, 2),
            // Per-core populations: the bound is on n × cores.
            ("net8020_sweep", 512, 4),
            ("net8020_points", 512, 4),
        ] {
            let sc = find(name).unwrap();
            sc.validate(&at(max, cores), false)
                .unwrap_or_else(|e| panic!("{name} at n = {max}: {e}"));
            let err = sc.validate(&at(max + 1, cores), false).unwrap_err();
            assert!(err.contains(&format!("n = {}", max + 1)), "{name}: {err}");
        }
        // Accepted at the bound means laid out with disjoint spans.
        for (name, max, cores) in [
            ("net8020", 2048, 4),
            ("net8020_large", 2048, 4),
            ("net8020_softfloat", 1024, 2),
            ("net8020_sweep", 512, 4),
        ] {
            assert_prepares_disjoint(find(name).unwrap(), &at(max, cores));
        }
    }

    #[test]
    fn defaults_are_the_schema_values() {
        let dense = find("net8020").unwrap();
        assert_eq!(
            dense.defaults(),
            ScenarioParams::default()
                .with_n(1000)
                .with_ticks(1000)
                .with_cores(2)
                .with_seed(5)
        );
        // Rules stay rules: the puzzle index is seed % 5.
        assert_eq!(find("sudoku_batch").unwrap().defaults().n, None);
        // The builders take their defaults from there.
        let large = find("net8020_large").unwrap();
        let wl = large.build(&ScenarioParams::default().with_ticks(10));
        assert_eq!(
            (wl.cfg().n, wl.cfg().n_cores, wl.cfg().ticks),
            (1280, 2, 10)
        );
    }

    #[test]
    fn validate_accepts_every_quick_and_default_shape() {
        for s in registry() {
            s.validate(&ScenarioParams::default(), true)
                .unwrap_or_else(|e| panic!("{}: quick shape rejected: {e}", s.name));
            s.validate(&ScenarioParams::default(), false)
                .unwrap_or_else(|e| panic!("{}: defaults rejected: {e}", s.name));
        }
        let sharded = find("net8020_sharded").unwrap();
        sharded
            .validate(
                &ScenarioParams::default().with_n(10240).with_cores(64),
                false,
            )
            .unwrap();
    }

    #[test]
    fn sudoku_verify_checks_the_grid() {
        let s = find("sudoku").unwrap();
        let wl = s.build_quick(&ScenarioParams::default());
        let res = wl.run().unwrap();
        // Quick budget: no convergence required, but the raster must be
        // sane and any decoded grid consistent.
        wl.verify(&res).unwrap();
    }
}
