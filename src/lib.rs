//! # Crowd-ML
//!
//! A Rust reproduction of *"Crowd-ML: A Privacy-Preserving Learning Framework for a
//! Crowd of Smart Devices"* (Hamm et al., ICDCS 2015).
//!
//! This facade crate re-exports the public API of every crate in the workspace so
//! downstream users can depend on a single crate:
//!
//! * [`linalg`] — dense vectors, BLAS-1 kernels, FFT, quantization.
//! * [`data`] — datasets, synthetic generators (generated already L1-normalized
//!   at the post-PCA dimension), partitioners.
//! * [`learning`] — models, losses, SGD, schedules, metrics, and the
//!   differential-privacy mechanisms and budget accounting (`learning::dp`).
//! * [`proto`] — wire protocol for device/server communication.
//! * [`net`] — TCP deployment of the protocol (reactor server, device client)
//!   and the seeded fault plan of its chaos driver (`net::fault`).
//! * [`reactor`] — dependency-free event-driven I/O core: poller-backed
//!   nonblocking server runtime with resumable frame state machines.
//! * [`core`] — the Crowd-ML framework itself: device/server routines, baselines,
//!   experiment runners, and the discrete-event simulation (`core::simulation`).
//! * [`agg`] — the sharded, batched gradient-aggregation runtime the TCP server
//!   serves from.
//! * [`rounds`] — the round-based cohort protocol (wire v6; sparse mask
//!   graph since v7): seed-derived round/cohort/role derivation and the
//!   pairwise additive masking that cancels bitwise in the finalized cohort
//!   sum.
//! * [`store`] — durable server state: CRC-framed write-ahead log, atomic
//!   snapshots, and bitwise crash recovery.
//! * [`telemetry`] — crowd-scope observability: the typed metric registry,
//!   log₂ histograms, the clock abstraction behind them, and the
//!   workspace's non-poisoning lock type.
//!
//! ## Quick start
//!
//! ```
//! use crowd_ml::core::config::{CrowdMlConfig, PrivacyConfig};
//! use crowd_ml::core::experiment::{CrowdMlExperiment, ExperimentConfig};
//! use crowd_ml::data::synthetic::GaussianMixtureSpec;
//!
//! // Generate a small synthetic task and learn it privately with 10 devices.
//! let spec = GaussianMixtureSpec::new(8, 4).with_train_size(400).with_test_size(100);
//! let config = ExperimentConfig::builder()
//!     .devices(10)
//!     .minibatch(5)
//!     .passes(1.0)
//!     .privacy(PrivacyConfig::with_total_epsilon(1.0))
//!     .seed(7)
//!     .build();
//! let outcome = CrowdMlExperiment::gaussian_mixture(spec, config).run().unwrap();
//! assert!(outcome.final_test_error() < 0.9);
//! ```
//!
//! ## Talking to a server: round sessions
//!
//! Against a round-running server (`ServerConfig::with_rounds`), the typed
//! round session is the default client surface: one checkout yields the model
//! parameters *and* the published round, the device derives its role locally,
//! and every checkin resolves to a [`net::CheckinOutcome`] matched by name.
//!
//! ```no_run
//! use crowd_ml::net::{CheckinOutcome, DeviceClient, Role};
//! use crowd_ml::proto::auth::AuthToken;
//!
//! # fn run(addr: std::net::SocketAddr, payload: crowd_ml::core::device::CheckinPayload)
//! # -> crowd_ml::net::Result<()> {
//! let client = DeviceClient::builder(addr, 7, AuthToken::derive(7, 0xFEED)).build();
//! let mut session = client.join_round()?;
//! loop {
//!     match session.role() {
//!         // Selected: submit one masked contribution to the cohort sum.
//!         Role::Selected => match session.submit(&payload)? {
//!             // The round closed mid-computation; rejoin and go again.
//!             CheckinOutcome::RoundOutdated { .. } => session = session.resync()?,
//!             outcome => {
//!                 assert!(outcome.applied());
//!                 break;
//!             }
//!         },
//!         // Unselected: free-run an ordinary checkin until the next round.
//!         Role::Unselected => {
//!             client.checkin(&payload)?;
//!             break;
//!         }
//!     }
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use crowd_agg as agg;
pub use crowd_core as core;
pub use crowd_data as data;
pub use crowd_learning as learning;
pub use crowd_linalg as linalg;
pub use crowd_net as net;
pub use crowd_proto as proto;
pub use crowd_reactor as reactor;
pub use crowd_rounds as rounds;
pub use crowd_store as store;
pub use crowd_telemetry as telemetry;
