//! Asynchronous, delay-aware simulation of a Crowd-ML deployment (§V-C).
//!
//! The simulation clock counts *fleet-wide sample arrivals*: one time unit is one
//! sample generated somewhere among the `M` devices, which is exactly the unit the
//! paper uses to express delays (`Δ = τ·M·F_s` is "the number of samples generated
//! by all devices during the delay of size τ"). Devices take turns generating
//! samples round-robin, so each device produces one sample every `M` time units.
//!
//! Each communication leg — checkout request (`τ_req`), parameter download
//! (`τ_co`), and checkin upload (`τ_ci`) — is delayed independently according to a
//! [`DelayModel`] (the paper draws each uniformly from `[0, τ]`). While a device
//! waits, other devices keep checking in, so the parameters it eventually uses are
//! stale; the server measures and reports that staleness.

use crate::config::CrowdMlConfig;
use crate::device::{Device, DeviceAction};
use crate::server::Server;
use crate::Result;
use crowd_data::Dataset;
use crowd_learning::metrics::{error_rate, ErrorCurve};
use crowd_learning::model::Model;
use crowd_linalg::Vector;
use crowd_sim::{DelayModel, EventQueue, TraceCollector};
use rand::Rng;

/// Simulation-level configuration (on top of the Crowd-ML algorithm configuration).
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// Delay model applied independently to each of the three communication legs.
    pub delay: DelayModel,
    /// Evaluate the test error every `eval_every` samples consumed by the server.
    pub eval_every: usize,
    /// Number of passes each device makes over its local data stream.
    pub passes: f64,
}

impl SimulationConfig {
    /// No delay, evaluation every 1 000 consumed samples, one pass.
    pub fn new() -> Self {
        SimulationConfig {
            delay: DelayModel::None,
            eval_every: 1000,
            passes: 1.0,
        }
    }

    /// Sets the delay model.
    pub fn with_delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the evaluation cadence.
    pub fn with_eval_every(mut self, eval_every: usize) -> Self {
        self.eval_every = eval_every.max(1);
        self
    }

    /// Sets the number of passes over each device's data.
    pub fn with_passes(mut self, passes: f64) -> Self {
        self.passes = if passes > 0.0 { passes } else { 1.0 };
        self
    }
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig::new()
    }
}

/// Result of one simulated Crowd-ML run.
#[derive(Debug, Clone)]
pub struct CrowdRunResult {
    /// Final server parameters.
    pub params: Vector,
    /// Test-error curve against samples consumed by the server (the Fig. 4–9 series).
    pub curve: ErrorCurve,
    /// Per-sample 0/1 online mistakes, in fleet arrival order, made by each device
    /// with the parameters it last received (the Fig. 3 quantity).
    pub online_mistakes: Vec<bool>,
    /// Number of server updates applied.
    pub server_iterations: u64,
    /// Event counters and staleness observations.
    pub trace: TraceCollector,
}

impl CrowdRunResult {
    /// Final test error (last point of the curve), or 1.0 if no evaluation was made.
    pub fn final_test_error(&self) -> f64 {
        self.curve.final_error().unwrap_or(1.0)
    }
}

enum SimEvent {
    /// The next fleet-wide sample arrival; `index` is the global arrival counter.
    SampleArrival { index: u64 },
    /// A checkout request reaches the server.
    CheckoutAtServer { device: usize },
    /// The checked-out parameters reach the device.
    ParamsAtDevice {
        device: usize,
        params: Vector,
        iteration: u64,
    },
    /// A checkin payload reaches the server.
    CheckinAtServer {
        payload: crate::device::CheckinPayload,
        checkout_time: f64,
    },
}

/// Runs the asynchronous Crowd-ML simulation.
///
/// `partitions[d]` is device `d`'s local data stream (consumed round-robin,
/// cycling when `passes > 1`); `test` is the clean evaluation set.
pub fn run_crowd_ml<M, R>(
    model: &M,
    partitions: &[Dataset],
    test: &Dataset,
    config: &CrowdMlConfig,
    sim: &SimulationConfig,
    rng: &mut R,
) -> Result<CrowdRunResult>
where
    M: Model,
    R: Rng + ?Sized,
{
    if partitions.is_empty() {
        return Err(crate::CoreError::Config(
            "simulation needs at least one device".into(),
        ));
    }
    let num_devices = partitions.len();
    let mut devices: Vec<Device> = (0..num_devices)
        .map(|d| Device::new(d as u64, config.device, config.privacy))
        .collect::<Result<_>>()?;
    let mut server = Server::with_random_init(
        // The server only needs scores/updates; cloning the caller's model keeps
        // the generic bound simple.
        clone_model(model),
        config.server.clone(),
        rng,
    )?;

    // Per-device view of the parameters (what the device last received), used for
    // the online predictions of Fig. 3.
    let mut last_params: Vec<Vector> = vec![server.params().clone(); num_devices];
    // Per-device cursor into its local stream.
    let mut cursors = vec![0usize; num_devices];

    let total_local: usize = partitions.iter().map(|p| p.len()).sum();
    let total_arrivals = ((total_local as f64) * sim.passes).ceil() as u64;

    let mut queue: EventQueue<SimEvent> = EventQueue::new();
    let mut trace = TraceCollector::new();
    let mut curve = ErrorCurve::new();
    let mut online_mistakes = Vec::with_capacity(total_arrivals as usize);
    let mut consumed_by_server = 0usize;
    let mut next_eval = sim.eval_every;

    if total_arrivals > 0 {
        queue.schedule(1.0, SimEvent::SampleArrival { index: 0 });
    }

    while let Some(event) = queue.pop() {
        match event.payload {
            SimEvent::SampleArrival { index } => {
                let device_idx = (index % num_devices as u64) as usize;
                let part = &partitions[device_idx];
                if !part.is_empty() {
                    let sample = part.get(cursors[device_idx] % part.len()).clone();
                    cursors[device_idx] += 1;
                    trace.count("samples_generated");

                    // Online prediction with the parameters this device last saw.
                    let pred = server
                        .model()
                        .predict(&last_params[device_idx], &sample.features)?;
                    online_mistakes.push(pred != sample.label);

                    let action = devices[device_idx].observe(sample);
                    match action {
                        DeviceAction::RequestCheckout => {
                            devices[device_idx].begin_checkout()?;
                            trace.count("checkout_requests");
                            let delay = sim.delay.sample(rng);
                            queue.schedule_after(
                                delay,
                                SimEvent::CheckoutAtServer { device: device_idx },
                            );
                        }
                        DeviceAction::Dropped => trace.count("samples_dropped"),
                        DeviceAction::Buffered => {}
                    }
                }
                // Schedule the next fleet-wide arrival one time unit later.
                if index + 1 < total_arrivals && !server.stopped() {
                    queue.schedule_after(1.0, SimEvent::SampleArrival { index: index + 1 });
                }
            }
            SimEvent::CheckoutAtServer { device } => {
                let ticket = server.checkout();
                trace.count("checkouts_served");
                let delay = sim.delay.sample(rng);
                queue.schedule_after(
                    delay,
                    SimEvent::ParamsAtDevice {
                        device,
                        params: ticket.params,
                        iteration: ticket.iteration,
                    },
                );
            }
            SimEvent::ParamsAtDevice {
                device,
                params,
                iteration,
            } => {
                last_params[device] = params.clone();
                if devices[device].buffer_len() == 0 {
                    // Nothing to do (should not normally happen); release the
                    // outstanding checkout so the device can retry later.
                    devices[device].abort_checkout();
                    trace.count("empty_checkins_skipped");
                    continue;
                }
                let payload = devices[device].compute_checkin(
                    server.model(),
                    &params,
                    iteration,
                    config.server.lambda,
                    rng,
                )?;
                trace.count("checkins_sent");
                let delay = sim.delay.sample(rng);
                let checkout_time = queue.now();
                queue.schedule_after(
                    delay,
                    SimEvent::CheckinAtServer {
                        payload,
                        checkout_time,
                    },
                );
            }
            SimEvent::CheckinAtServer {
                payload,
                checkout_time,
            } => {
                let num_samples = payload.num_samples;
                let outcome = server.checkin(&payload)?;
                trace.count("checkins_applied");
                trace.record_latency(queue.now() - checkout_time);
                trace.add("staleness_total", outcome.staleness);
                if outcome.accepted {
                    consumed_by_server += num_samples;
                    if consumed_by_server >= next_eval {
                        let err = error_rate(server.model(), server.params(), test)?;
                        curve.push(consumed_by_server, err);
                        next_eval = consumed_by_server + sim.eval_every;
                    }
                }
            }
        }
    }

    // Always record a final point so short runs still report an error.
    if curve.is_empty() || consumed_by_server > curve.points().last().map_or(0, |p| p.iteration) {
        let err = error_rate(server.model(), server.params(), test)?;
        curve.push(consumed_by_server.max(1), err);
    }

    Ok(CrowdRunResult {
        params: server.params().clone(),
        curve,
        online_mistakes,
        server_iterations: server.iteration(),
        trace,
    })
}

/// The simulation owns its own model instance so the server can be constructed
/// generically; models in this workspace are small plain-old-data structs, so a
/// clone is cheap. A dedicated helper keeps the `Clone` requirement out of the
/// public trait bound.
fn clone_model<M: Model>(model: &M) -> ModelRef<'_, M> {
    ModelRef { inner: model }
}

/// A zero-cost wrapper that forwards the [`Model`] trait to a borrowed model.
#[derive(Debug, Clone, Copy)]
pub struct ModelRef<'a, M: Model> {
    inner: &'a M,
}

impl<'a, M: Model> Model for ModelRef<'a, M> {
    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }
    fn param_dim(&self) -> usize {
        self.inner.param_dim()
    }
    fn init_params(&self) -> Vector {
        self.inner.init_params()
    }
    fn scores(&self, params: &Vector, x: &Vector) -> crowd_learning::Result<Vec<f64>> {
        self.inner.scores(params, x)
    }
    fn loss(&self, params: &Vector, x: &Vector, y: usize) -> crowd_learning::Result<f64> {
        self.inner.loss(params, x, y)
    }
    fn gradient(&self, params: &Vector, x: &Vector, y: usize) -> crowd_learning::Result<Vector> {
        self.inner.gradient(params, x, y)
    }
    fn gradient_into(
        &self,
        params: &Vector,
        x: &Vector,
        y: usize,
        out: &mut Vector,
    ) -> crowd_learning::Result<()> {
        self.inner.gradient_into(params, x, y, out)
    }
    fn evaluate_accumulate(
        &self,
        params: &Vector,
        x: &Vector,
        y: usize,
        grad_sum: Option<&mut Vector>,
    ) -> crowd_learning::Result<crowd_learning::model::SampleEval> {
        self.inner.evaluate_accumulate(params, x, y, grad_sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CrowdMlConfig, DeviceConfig, PrivacyConfig, ServerConfig};
    use crowd_data::partition::{partition, PartitionStrategy};
    use crowd_data::synthetic::GaussianMixtureSpec;
    use crowd_learning::MulticlassLogistic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn task(seed: u64, n: usize) -> (Dataset, Dataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        GaussianMixtureSpec::new(10, 4)
            .with_train_size(n)
            .with_test_size(200)
            .with_mean_scale(2.5)
            .with_noise_std(0.6)
            .generate(&mut rng)
            .unwrap()
    }

    fn split(train: &Dataset, devices: usize, seed: u64) -> Vec<Dataset> {
        let mut rng = StdRng::seed_from_u64(seed);
        partition(train, devices, PartitionStrategy::Iid, &mut rng).unwrap()
    }

    #[test]
    fn crowd_ml_learns_without_privacy_or_delay() {
        let (train, test) = task(0, 1500);
        let parts = split(&train, 50, 1);
        let model = MulticlassLogistic::new(10, 4).unwrap();
        let config = CrowdMlConfig::new(
            DeviceConfig::new(1),
            ServerConfig::new().with_rate_constant(2.0),
            PrivacyConfig::non_private(),
        )
        .unwrap();
        let sim = SimulationConfig::new().with_eval_every(300);
        let mut rng = StdRng::seed_from_u64(2);
        let result = run_crowd_ml(&model, &parts, &test, &config, &sim, &mut rng).unwrap();
        assert!(
            result.final_test_error() < 0.15,
            "error {}",
            result.final_test_error()
        );
        assert_eq!(result.trace.get("samples_generated"), 1500);
        assert_eq!(result.server_iterations, 1500);
        assert_eq!(result.online_mistakes.len(), 1500);
        // With b = 1 every sample triggers a checkout/checkin.
        assert_eq!(result.trace.get("checkins_applied"), 1500);
    }

    #[test]
    fn minibatch_reduces_server_iterations() {
        let (train, test) = task(3, 1000);
        let parts = split(&train, 20, 4);
        let model = MulticlassLogistic::new(10, 4).unwrap();
        let config = CrowdMlConfig::new(
            DeviceConfig::new(10),
            ServerConfig::new().with_rate_constant(2.0),
            PrivacyConfig::non_private(),
        )
        .unwrap();
        let sim = SimulationConfig::new().with_eval_every(250);
        let mut rng = StdRng::seed_from_u64(5);
        let result = run_crowd_ml(&model, &parts, &test, &config, &sim, &mut rng).unwrap();
        // 1000 samples at b = 10 → roughly 100 updates (boundary effects aside).
        assert!(result.server_iterations <= 100);
        assert!(result.server_iterations >= 80);
        assert!(result.final_test_error() < 0.3);
    }

    #[test]
    fn delay_introduces_staleness() {
        let (train, test) = task(6, 800);
        let parts = split(&train, 40, 7);
        let model = MulticlassLogistic::new(10, 4).unwrap();
        let config = CrowdMlConfig::default_non_private();
        let delayed = SimulationConfig::new()
            .with_delay(DelayModel::Uniform { max: 100.0 })
            .with_eval_every(400);
        let mut rng = StdRng::seed_from_u64(8);
        let result = run_crowd_ml(&model, &parts, &test, &config, &delayed, &mut rng).unwrap();
        // With substantial delays some checkins must observe a stale model.
        assert!(result.trace.get("staleness_total") > 0);
        assert!(result.trace.mean_latency().unwrap() > 0.0);
        // Checkins batch up the samples that arrived while the device waited, so
        // there are fewer checkins than samples but all generated samples are
        // accounted for (generated = consumed by server + dropped + still buffered).
        let applied = result.trace.get("checkins_applied");
        assert!(applied > 0 && applied < 800, "applied {applied}");
        assert_eq!(result.trace.get("samples_generated"), 800);
    }

    #[test]
    fn stopping_criterion_halts_early() {
        let (train, test) = task(9, 1000);
        let parts = split(&train, 10, 10);
        let model = MulticlassLogistic::new(10, 4).unwrap();
        let config = CrowdMlConfig::new(
            DeviceConfig::new(1),
            ServerConfig::new().with_max_iterations(50),
            PrivacyConfig::non_private(),
        )
        .unwrap();
        let sim = SimulationConfig::new().with_eval_every(100);
        let mut rng = StdRng::seed_from_u64(11);
        let result = run_crowd_ml(&model, &parts, &test, &config, &sim, &mut rng).unwrap();
        assert_eq!(result.server_iterations, 50);
        // The stop prevents the remaining samples from being generated.
        assert!(result.trace.get("samples_generated") < 1000);
    }

    #[test]
    fn privacy_noise_degrades_but_does_not_break_learning() {
        let (train, test) = task(12, 2000);
        let parts = split(&train, 50, 13);
        let model = MulticlassLogistic::new(10, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(14);

        let clean_config = CrowdMlConfig::default_non_private();
        let sim = SimulationConfig::new().with_eval_every(500);
        let clean = run_crowd_ml(&model, &parts, &test, &clean_config, &sim, &mut rng).unwrap();

        let noisy_config = CrowdMlConfig::new(
            DeviceConfig::new(20),
            ServerConfig::new(),
            PrivacyConfig::with_total_epsilon(10.0),
        )
        .unwrap();
        let noisy = run_crowd_ml(&model, &parts, &test, &noisy_config, &sim, &mut rng).unwrap();

        assert!(clean.final_test_error() < 0.2);
        // With ε = 10 and b = 20 the noise is modest; learning must stay usable
        // (far better than the 0.75 chance level of a 4-class task).
        assert!(
            noisy.final_test_error() < 0.5,
            "noisy error {}",
            noisy.final_test_error()
        );
    }

    #[test]
    fn rejects_empty_fleet() {
        let model = MulticlassLogistic::new(4, 2).unwrap();
        let test = Dataset::empty(4, 2).unwrap();
        let config = CrowdMlConfig::default_non_private();
        let sim = SimulationConfig::new();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(run_crowd_ml(&model, &[], &test, &config, &sim, &mut rng).is_err());
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let (train, test) = task(15, 600);
        let parts = split(&train, 10, 16);
        let model = MulticlassLogistic::new(10, 4).unwrap();
        let config = CrowdMlConfig::new(
            DeviceConfig::new(5),
            ServerConfig::new(),
            PrivacyConfig::with_total_epsilon(5.0),
        )
        .unwrap();
        let sim = SimulationConfig::new()
            .with_delay(DelayModel::Uniform { max: 20.0 })
            .with_eval_every(200);
        let a = run_crowd_ml(
            &model,
            &parts,
            &test,
            &config,
            &sim,
            &mut StdRng::seed_from_u64(99),
        )
        .unwrap();
        let b = run_crowd_ml(
            &model,
            &parts,
            &test,
            &config,
            &sim,
            &mut StdRng::seed_from_u64(99),
        )
        .unwrap();
        assert_eq!(a.params, b.params);
        assert_eq!(a.curve, b.curve);
        assert_eq!(a.online_mistakes, b.online_mistakes);
    }
}
