//! A machine-speed gauge sampled while the benchmark runs.
//!
//! The boxes this benchmark runs on are small shared VMs whose vCPUs each lose
//! up to half their speed, independently, for seconds to minutes at a time
//! when a neighbour is busy. Identical runs then differ by 30–60 % on every
//! timing metric — more than any regression bound. So one thread per CPU,
//! pinned, wakes every millisecond and times a small fixed kernel (well under
//! 1 % of a CPU), and every timing figure is scaled by the machine's speed
//! while it was measured: times are reported as they would read, and rates as
//! they would run, on the unimpeded machine the benchmark was defined on.
//!
//! The kernel is deliberately not repo code (an optimisation of the repo must
//! not move the gauge) and deliberately a mix — a dependent integer chain,
//! L1-resident random loads, floating point, a data-dependent branch and a
//! store per step — so it slows the way ordinary code slows.

use crate::sys::pin_to_cpu;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernel time on an unimpeded vCPU of the box the benchmark was defined on
/// (the 5th percentile of 2,400 half-second medians).
pub const NOMINAL_NS: f64 = 850.0;

/// How often each gauge thread samples.
const PERIOD: Duration = Duration::from_millis(1);

const WORDS: usize = 512;

/// Runs the fixed kernel once over `buf` and returns its wall time in ns.
fn kernel_ns(buf: &mut [f64; WORDS], state: &mut u64) -> u64 {
    let start = Instant::now();
    let mut x = *state;
    let mut acc = 0.0f64;
    for i in 0..WORDS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (x >> 55) as usize;
        let v = buf[j] * 1.000_001 + buf[i] * 0.5;
        buf[i] = if v > 1.0 { v - 1.0 } else { v + 0.25 };
        acc += v;
    }
    *state = x ^ black_box(acc).to_bits();
    start.elapsed().as_nanos() as u64
}

/// One pinned sampling thread per available CPU.
pub struct CpuGauges {
    samples: Vec<Arc<Mutex<Vec<u64>>>>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl CpuGauges {
    /// Starts the gauge threads; they run until the value is dropped.
    pub fn start() -> CpuGauges {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let samples: Vec<Arc<Mutex<Vec<u64>>>> = (0..cpus).map(|_| Arc::default()).collect();
        let threads = samples
            .iter()
            .enumerate()
            .map(|(cpu, cell)| {
                let (cell, stop) = (Arc::clone(cell), Arc::clone(&stop));
                std::thread::spawn(move || {
                    // Best effort: where the CPU is not in the process's
                    // allowed set the thread stays unpinned and still samples.
                    let _ = pin_to_cpu(cpu);
                    let (mut buf, mut state) = ([0.5; WORDS], 0x9E37_79B9_7F4A_7C15);
                    // Relaxed: the flag publishes no other data.
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(PERIOD);
                        // The first pass after a sleep refills the cache;
                        // only the second is timed.
                        kernel_ns(&mut buf, &mut state);
                        let ns = kernel_ns(&mut buf, &mut state);
                        cell.lock().expect("gauge threads never panic").push(ns);
                    }
                })
            })
            .collect();
        CpuGauges {
            samples,
            stop,
            threads,
        }
    }

    /// The machine's speed since the last call, as a share of nominal: the
    /// mean over CPUs of `NOMINAL_NS ÷ median kernel time` — the capacity the
    /// scheduler had to spread the program's threads over. 1 without samples.
    pub fn take_speed(&self) -> f64 {
        let speeds: Vec<f64> = self
            .samples
            .iter()
            .filter_map(|cell| {
                let mut taken =
                    std::mem::take(&mut *cell.lock().expect("gauge threads never panic"));
                taken.sort_unstable();
                let median = *taken.get(taken.len() / 2)?;
                (median > 0).then(|| NOMINAL_NS / median as f64)
            })
            .collect();
        if speeds.is_empty() {
            1.0
        } else {
            speeds.iter().sum::<f64>() / speeds.len() as f64
        }
    }
}

impl Drop for CpuGauges {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_report_a_plausible_speed_and_reset() {
        let gauges = CpuGauges::start();
        assert_eq!(gauges.take_speed(), 1.0, "no samples yet");
        std::thread::sleep(Duration::from_millis(60));
        let speed = gauges.take_speed();
        assert!(speed > 0.01 && speed < 100.0, "speed {speed}");
        drop(gauges);
    }

    #[test]
    fn kernel_is_deterministic_work() {
        let run = || {
            let (mut buf, mut state) = ([0.5; WORDS], 1u64);
            for _ in 0..3 {
                kernel_ns(&mut buf, &mut state);
            }
            (
                buf.iter().fold(0u64, |a, v| a.wrapping_add(v.to_bits())),
                state,
            )
        };
        assert_eq!(run(), run());
    }
}
