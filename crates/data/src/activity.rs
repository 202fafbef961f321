//! Synthetic activity-recognition workload (§V-B of the paper).
//!
//! The paper's real-environment demonstration recognizes three activities —
//! "Still", "On Foot", and "In Vehicle" — from smartphone accelerometers sampled at
//! 20 Hz. Acceleration magnitudes `|a| = √(a_x² + a_y² + a_z²)` are windowed over
//! 3.2 s (64 samples at 20 Hz) and featurized with a 64-bin FFT; a sample is kept
//! only when the activity label *changes* from the previous value, which lowers
//! the effective sampling rate and decorrelates consecutive samples.
//!
//! We cannot re-run the authors' phones, so [`ActivitySimulator`] generates a
//! synthetic magnitude signal per activity — gravity plus activity-specific
//! oscillation and noise — and feeds it through exactly the same windowing, FFT
//! featurization, and label-change sampling policy. The classifier and privacy
//! pipeline downstream are identical to what a real deployment would see.

use crate::dataset::{Dataset, Sample};
use crate::error::DataError;
use crate::Result;
use crowd_linalg::fft::magnitude_spectrum;
use crowd_linalg::ops::normalize_l1;
use crowd_linalg::random::standard_normal;
use crowd_linalg::Vector;
use rand::Rng;

/// The three activities recognized in the paper's demonstration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activity {
    /// The device is stationary.
    Still,
    /// The user is walking or running.
    OnFoot,
    /// The user is in a moving vehicle.
    InVehicle,
}

impl Activity {
    /// All activities in label order.
    pub const ALL: [Activity; 3] = [Activity::Still, Activity::OnFoot, Activity::InVehicle];

    /// The class label used by the learning stack.
    pub fn label(self) -> usize {
        match self {
            Activity::Still => 0,
            Activity::OnFoot => 1,
            Activity::InVehicle => 2,
        }
    }

    /// Converts a class label back to an activity.
    pub fn from_label(label: usize) -> Option<Activity> {
        Activity::ALL.get(label).copied()
    }

    /// Human-readable name matching the paper's figure labels.
    pub fn name(self) -> &'static str {
        match self {
            Activity::Still => "Still",
            Activity::OnFoot => "On Foot",
            Activity::InVehicle => "In Vehicle",
        }
    }

    /// Signal profile: (oscillation amplitude, oscillation frequency in Hz, noise σ).
    ///
    /// Walking produces a strong ~2 Hz gait oscillation; vehicles produce lower-
    /// frequency, lower-amplitude vibration with broadband noise; stationary devices
    /// see gravity plus sensor noise only.
    fn profile(self) -> (f64, f64, f64) {
        match self {
            Activity::Still => (0.02, 0.3, 0.03),
            Activity::OnFoot => (2.5, 2.0, 0.35),
            Activity::InVehicle => (0.6, 0.9, 0.55),
        }
    }
}

/// Configuration of the synthetic accelerometer pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityConfig {
    /// Accelerometer sampling rate in Hz (paper: 20 Hz).
    pub sample_rate_hz: f64,
    /// Window length in accelerometer samples; must be a power of two
    /// (paper: 3.2 s × 20 Hz = 64 samples).
    pub window_len: usize,
    /// Expected dwell time (in windows) before the simulated user switches
    /// activity. Label changes follow a geometric distribution with this mean.
    pub mean_dwell_windows: f64,
}

impl Default for ActivityConfig {
    fn default() -> Self {
        ActivityConfig {
            sample_rate_hz: 20.0,
            window_len: 64,
            mean_dwell_windows: 12.0,
        }
    }
}

/// Simulates one device's accelerometer stream and emits label-change-triggered
/// feature samples.
#[derive(Debug, Clone)]
pub struct ActivitySimulator {
    config: ActivityConfig,
    current: Activity,
    previous_emitted: Option<Activity>,
    windows_in_current: usize,
    phase: f64,
}

impl ActivitySimulator {
    /// Creates a simulator starting in the given activity.
    pub fn new(config: ActivityConfig, start: Activity) -> Result<Self> {
        if config.window_len == 0 || (config.window_len & (config.window_len - 1)) != 0 {
            return Err(DataError::InvalidArgument(format!(
                "window_len {} must be a nonzero power of two",
                config.window_len
            )));
        }
        if config.sample_rate_hz <= 0.0 {
            return Err(DataError::InvalidArgument(
                "sample_rate_hz must be positive".into(),
            ));
        }
        if config.mean_dwell_windows < 1.0 {
            return Err(DataError::InvalidArgument(
                "mean_dwell_windows must be at least 1".into(),
            ));
        }
        Ok(ActivitySimulator {
            config,
            current: start,
            previous_emitted: None,
            windows_in_current: 0,
            phase: 0.0,
        })
    }

    /// The feature dimensionality produced by the simulator (`window_len / 2`
    /// FFT magnitude bins).
    pub fn feature_dim(&self) -> usize {
        self.config.window_len / 2
    }

    /// Generates one raw magnitude window for the current activity.
    pub fn raw_window<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<f64> {
        let (amp, freq, noise) = self.current.profile();
        let dt = 1.0 / self.config.sample_rate_hz;
        let mut window = Vec::with_capacity(self.config.window_len);
        for _ in 0..self.config.window_len {
            self.phase += 2.0 * std::f64::consts::PI * freq * dt;
            // Gravity magnitude (≈9.8) plus activity oscillation plus sensor noise.
            let value = 9.8 + amp * self.phase.sin() + noise * standard_normal(rng);
            window.push(value);
        }
        window
    }

    /// Extracts the L1-normalized FFT magnitude feature vector from a raw window
    /// (the privacy analysis requires `‖x‖₁ ≤ 1`).
    pub fn featurize(&self, window: &[f64]) -> Result<Vector> {
        let mags = magnitude_spectrum(window)
            .map_err(|e| DataError::InvalidArgument(format!("feature extraction failed: {e}")))?;
        let mut x = Vector::from_vec(mags);
        // Remove the DC (gravity) bin so features describe motion, then normalize.
        if !x.is_empty() {
            x[0] = 0.0;
        }
        normalize_l1(&mut x);
        Ok(x)
    }

    /// Advances the simulation by one window and returns a labeled sample **only
    /// when the activity label changed** since the previously emitted sample —
    /// the paper's sampling policy. The very first window is always emitted.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<Option<Sample>> {
        // Possibly transition to a new activity (geometric dwell time).
        self.windows_in_current += 1;
        let p_switch = 1.0 / self.config.mean_dwell_windows;
        if self.windows_in_current > 1 && rng.gen::<f64>() < p_switch {
            let next = loop {
                let candidate = Activity::ALL[rng.gen_range(0..Activity::ALL.len())];
                if candidate != self.current {
                    break candidate;
                }
            };
            self.current = next;
            self.windows_in_current = 0;
        }

        let window = self.raw_window(rng);
        let emit = match self.previous_emitted {
            None => true,
            Some(prev) => prev != self.current,
        };
        if !emit {
            return Ok(None);
        }
        self.previous_emitted = Some(self.current);
        let features = self.featurize(&window)?;
        Ok(Some(Sample::new(features, self.current.label())))
    }

    /// Runs the simulator until `n` samples have been emitted (bounded by a
    /// generous step budget to guarantee termination) and returns them as a
    /// dataset.
    pub fn collect<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize) -> Result<Dataset> {
        let mut dataset = Dataset::empty(self.feature_dim(), Activity::ALL.len())?;
        let max_steps = n.saturating_mul(200).max(1000);
        let mut steps = 0;
        while dataset.len() < n && steps < max_steps {
            steps += 1;
            if let Some(sample) = self.step(rng)? {
                dataset.push(sample)?;
            }
        }
        Ok(dataset)
    }
}

/// Generates one dataset per device for a fleet of `num_devices` simulated phones,
/// each contributing `samples_per_device` label-change-triggered samples.
pub fn simulate_fleet<R: Rng + ?Sized>(
    rng: &mut R,
    config: &ActivityConfig,
    num_devices: usize,
    samples_per_device: usize,
) -> Result<Vec<Dataset>> {
    let mut out = Vec::with_capacity(num_devices);
    for d in 0..num_devices {
        let start = Activity::ALL[d % Activity::ALL.len()];
        let mut sim = ActivitySimulator::new(config.clone(), start)?;
        out.push(sim.collect(rng, samples_per_device)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn activity_label_round_trip() {
        for a in Activity::ALL {
            assert_eq!(Activity::from_label(a.label()), Some(a));
        }
        assert_eq!(Activity::from_label(3), None);
        assert_eq!(Activity::OnFoot.name(), "On Foot");
    }

    #[test]
    fn config_validation() {
        let bad = ActivityConfig {
            window_len: 63,
            ..ActivityConfig::default()
        };
        assert!(ActivitySimulator::new(bad, Activity::Still).is_err());
        let bad_rate = ActivityConfig {
            sample_rate_hz: 0.0,
            ..ActivityConfig::default()
        };
        assert!(ActivitySimulator::new(bad_rate, Activity::Still).is_err());
        let bad_dwell = ActivityConfig {
            mean_dwell_windows: 0.5,
            ..ActivityConfig::default()
        };
        assert!(ActivitySimulator::new(bad_dwell, Activity::Still).is_err());
        assert!(ActivitySimulator::new(ActivityConfig::default(), Activity::Still).is_ok());
    }

    #[test]
    fn feature_dim_is_half_window() {
        let sim = ActivitySimulator::new(ActivityConfig::default(), Activity::Still).unwrap();
        assert_eq!(sim.feature_dim(), 32);
    }

    #[test]
    fn features_are_l1_normalized_and_finite() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut sim = ActivitySimulator::new(ActivityConfig::default(), Activity::OnFoot).unwrap();
        let window = sim.raw_window(&mut rng);
        assert_eq!(window.len(), 64);
        let x = sim.featurize(&window).unwrap();
        assert!(x.is_finite());
        assert!((x.norm_l1() - 1.0).abs() < 1e-9);
        assert_eq!(x[0], 0.0, "DC bin must be removed");
    }

    #[test]
    fn walking_has_more_spectral_energy_than_still() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut walk = ActivitySimulator::new(ActivityConfig::default(), Activity::OnFoot).unwrap();
        let mut still = ActivitySimulator::new(ActivityConfig::default(), Activity::Still).unwrap();
        // Compare raw spectra: the features are L1-normalized, so their total
        // energy is 1 for every activity. Skip the DC (gravity) bin.
        let motion_energy =
            |window: &[f64]| -> f64 { magnitude_spectrum(window).unwrap()[1..].iter().sum() };
        let walk_energy = motion_energy(&walk.raw_window(&mut rng));
        let still_energy = motion_energy(&still.raw_window(&mut rng));
        assert!(walk_energy > 5.0 * still_energy);
    }

    #[test]
    fn first_step_always_emits_and_repeats_do_not() {
        let mut rng = StdRng::seed_from_u64(2);
        let config = ActivityConfig {
            mean_dwell_windows: 1e9, // effectively never switch
            ..ActivityConfig::default()
        };
        let mut sim = ActivitySimulator::new(config, Activity::Still).unwrap();
        assert!(sim.step(&mut rng).unwrap().is_some());
        for _ in 0..5 {
            assert!(sim.step(&mut rng).unwrap().is_none());
        }
    }

    #[test]
    fn collect_produces_requested_samples_with_all_classes() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = ActivityConfig {
            mean_dwell_windows: 2.0,
            ..ActivityConfig::default()
        };
        let mut sim = ActivitySimulator::new(config, Activity::Still).unwrap();
        let data = sim.collect(&mut rng, 60).unwrap();
        assert_eq!(data.len(), 60);
        assert_eq!(data.num_classes(), 3);
        let counts = data.class_counts();
        assert!(counts.iter().all(|&c| c > 0), "class counts {counts:?}");
        // Consecutive samples never share a label (label-change-triggered policy).
        for pair in data.samples().windows(2) {
            assert_ne!(pair[0].label, pair[1].label);
        }
    }

    #[test]
    fn fleet_simulation_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let fleet = simulate_fleet(&mut rng, &ActivityConfig::default(), 7, 10).unwrap();
        assert_eq!(fleet.len(), 7);
        for d in &fleet {
            assert_eq!(d.len(), 10);
            assert_eq!(d.dim(), 32);
        }
    }
}
