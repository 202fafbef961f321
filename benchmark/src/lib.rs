//! crowd-budget: the repo's closed-loop device-round benchmark.
//!
//! A real `crowd_net::ReactorServer` runs in-process on loopback and one
//! generator thread drives it with a fleet of real `crowd_core::Device`s, so
//! the learning, DP, quantization, proto, reactor, net, agg, store and rounds
//! layers all do their real work. See `README.md` for the metric and workload
//! catalogue.

pub mod calib;
pub mod fleet;
pub mod probes;
pub mod procstat;
pub mod run;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;

/// One reported measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    /// A metric; a non-finite value (an empty sample) reads as 0.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}
