//! # fftx-core
//!
//! The FFTXlib miniapp itself: the distributed FFT kernel of Quantum
//! ESPRESSO that applies a real-space-diagonal operator to plane-wave
//! wavefunctions, in the variants the paper studies:
//!
//! * [`stages`] — the unified stage-graph execution core: the per-band
//!   pipeline as a typed task graph, executed by pluggable scheduler
//!   policies (serial, task-per-step, task-per-FFT, split-phase async, and
//!   the hybrid overlap+desync policy of the paper's conclusion). Every
//!   real execution enters through [`run_policy`] (or
//!   [`run_policy_chaotic`] for explicit chaos injection), with
//!   `SchedulerPolicy::for_mode(config.mode)` selecting the static MPI
//!   code or one of the OmpSs strategies;
//! * [`modelplan`] — lowering of the same kernel onto the KNL discrete-event
//!   simulator for the paper's node-scale experiments.
//!
//! Every real execution is verifiable against the serial reference pipeline
//! in `fftx-pw` ([`verify`]).

#![warn(missing_docs)]

pub mod config;
pub mod modelplan;
pub mod plan;
pub mod problem;
pub mod recorder;
pub mod recovery;
pub mod stages;
pub mod steps;
pub mod verify;

pub use config::env::{load as load_env, valid_policies, EnvError, EnvKnobs, FleetKnobs};
pub use config::{valid_decomps, DecompChoice, Decomposition, FftxConfig, Mode};
pub use plan::{BufferArena, ExecPlan, PencilTables};
pub use recovery::{run_eviction, run_retry, run_rollback, RecoveryStats};
pub use verify::{probe_fft_unit, run_verified, VerifyMode, VerifyStats, PARSEVAL_TOL};
pub use problem::Problem;
// Re-exported so `Problem::with_grid` callers (the serving layer's
// explicit-grid geometry classes) can name the grid type without a direct
// fftx-pw dependency.
pub use fftx_pw::{Cell, FftGrid, DUAL};
pub use modelplan::{
    build_programs, choose_decomp, modeled_scatter_seconds, resolve_decomp, run_modeled,
    run_modeled_with, simulate_config, simulate_config_faulty, ModeledRun,
};
pub use stages::{
    run_policy, run_policy_chaotic, RunOutput, ScatterComms, SchedulerPolicy, StageKind,
    StagePlan, StageRunner, BAND_PIPELINE,
};
