//! The Crowd-ML framework: privacy-preserving distributed learning for a crowd of
//! smart devices (Hamm et al., ICDCS 2015).
//!
//! The crate implements the paper's Algorithms 1 and 2 and everything the
//! evaluation section needs around them:
//!
//! * [`config`] — device, server, and privacy configuration (minibatch size `b`,
//!   buffer bound `B`, learning-rate schedule `η(t) = c/√t`, regularization λ,
//!   parameter-ball radius `R`, stopping criteria `T_max`/ρ, and the ε budget
//!   split).
//! * [`device`] — Device Routines 1–3: sample buffering, checkout triggering,
//!   minibatch-gradient computation, and local sanitization of `(g̃, n_e, n_y^k)`.
//! * [`server`] — Server Routines 1–2: parameter serving, the projected SGD update
//!   `w ← Π_W[w − η(t)ĝ]`, per-device progress counters, and the stopping rule.
//! * [`baselines`] — the three comparison systems of §V: Centralized (batch),
//!   Centralized (SGD) on feature/label-perturbed data (Appendix C), and
//!   Decentralized per-device SGD.
//! * [`simulation`] — the asynchronous, delay-aware discrete-event simulation of a
//!   fleet of devices (§V-C's simulated environment), built on `crowd-sim`.
//! * [`experiment`] — high-level experiment runners that produce the
//!   error-vs-iteration curves of Figs. 3–9.
//! * [`report`] — plain-text/CSV rendering used by the figure binaries and
//!   EXPERIMENTS.md.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod config;
pub mod device;
pub mod error;
pub mod experiment;
pub mod privacy;
pub mod report;
pub mod server;
pub mod simulation;

pub use config::{
    AggSettings, BudgetSettings, CrowdMlConfig, DeviceConfig, PersistSettings, PrivacyConfig,
    RoundSettings, ServerConfig,
};
pub use device::{CheckinPayload, Device, DeviceAction};
pub use error::CoreError;
pub use server::{
    CheckinReceipt, DeviceEpochStats, EpochAggregate, PendingSubmission, RoundAdmission, RoundInfo,
    RoundStateSnapshot, Server, ServerState,
};

/// Result alias for the core crate.
pub type Result<T> = std::result::Result<T, CoreError>;
