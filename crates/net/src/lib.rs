//! TCP deployment of the Crowd-ML protocol.
//!
//! The paper's prototype runs Algorithm 2 behind an Apache/MySQL web stack and the
//! devices talk to it over HTTPS. This crate provides the equivalent deployment
//! for the Rust implementation: one TCP server,
//! [`reactor_server::ReactorServer`], that hosts Server Routines 1–2 behind
//! the `crowd-proto` wire protocol; a [`client::DeviceClient`] that runs
//! Device Routines 1–3 against it; and a [`cluster::LocalCluster`] helper that
//! spins up a server plus a fleet of device threads on localhost for examples
//! and integration tests.
//!
//! The server is event-driven, built on the `crowd-reactor` core: a fixed
//! pool of reactor threads multiplexes thousands of connections, and a full
//! ingest queue throttles socket reads instead of replying `Busy`. The
//! [`driver::FleetDriver`] is its client-side counterpart — one thread driving
//! an entire simulated device fleet through nonblocking exchanges.
//!
//! [`fault::FaultPlan`] turns one seed into every transport fault, churn
//! event and scripted crash of a run; the client's fault shim injects them and
//! the [`chaos::ChaosCluster`] driver applies the churn and crashes.
//!
//! Transport security (the prototype's TLS) is out of scope — the privacy
//! guarantees of Crowd-ML come from the *local* sanitization on the device, which
//! is unchanged — but device authentication tokens are enforced exactly as the
//! server routines require.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod client;
pub mod cluster;
pub mod driver;
pub mod error;
pub mod fault;
pub mod reactor_server;
mod service;

pub use chaos::{ChaosCluster, ChaosReport};
pub use client::{CheckinOutcome, DeviceClient, DeviceClientBuilder, RetryPolicy, RoundSession};
pub use cluster::{ClusterReport, LocalCluster};
pub use crowd_rounds::Role;
pub use driver::{FleetConfig, FleetDriver, FleetReport};
pub use error::NetError;
pub use reactor_server::{ReactorServer, ReactorServerHandle};

/// Result alias for networking operations.
pub type Result<T> = std::result::Result<T, NetError>;
