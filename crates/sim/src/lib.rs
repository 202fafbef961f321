//! Discrete-event simulation substrate for asynchronous device/server interaction.
//!
//! The paper evaluates Crowd-ML "in a simulated environment instead of on a real
//! network" so the number of devices and the maximum delay can be controlled
//! exactly (§V-C): communication delays are drawn uniformly from `[0, τ]` per
//! message, and the interesting quantity is how many updates other devices manage
//! to push between one device's checkout and its checkin
//! (`Δ = τ · M · F_s` samples, §IV-B3).
//!
//! This crate provides the generic machinery — a deterministic [`EventQueue`],
//! [`DelayModel`]s, and a [`trace::TraceCollector`] — on top of which `crowd-core`
//! builds the actual Crowd-ML device/server simulation.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod delay;
pub mod event;
pub mod queue;
pub mod trace;

pub use chaos::{ChurnSchedule, CrashPlan, FaultAction, FaultPlan, TransportFaults};
pub use delay::DelayModel;
pub use event::Event;
pub use queue::EventQueue;
pub use trace::TraceCollector;
