//! Lockstep fleet driver: one thread running an entire simulated device
//! fleet against a Crowd-ML server over blocking sockets.
//!
//! Where [`crate::DeviceClient`] runs one exchange at a time, `FleetDriver`
//! keeps a window of `max_open` devices connected and steps them in lockstep:
//! it writes every device's request before it reads any reply, so N admitted
//! devices are N concurrent server connections with a request pending on
//! each — what the `reactor_fleet` scaling bench measures. With a 20k fd
//! budget and two fds per localhost connection, fleets beyond ~4k devices
//! run as several windows.
//!
//! Gradients, labels and nonces are pure functions of `(device, round)`.
//! Nothing is retried: a connect, write or read error, or a reply the
//! exchange does not expect, fails the device.

use crate::session::{on_checkin, on_checkout, CheckinOutcome, DeviceSession};
use crate::NetError;
use crowd_core::device::CheckinPayload;
use crowd_linalg::Vector;
use crowd_proto::auth::AuthToken;
use crowd_proto::frame::{read_message, write_message};
use crowd_proto::message::{ErrorCode, Message};
use crowd_proto::ProtoError;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Connections opened before their checkout replies are read. A whole window
/// at once overflows the listener's accept backlog (128 on Linux), and a
/// dropped SYN is retransmitted only after ~1 s.
const ADMIT_BURST: usize = 64;

/// How long one reply may take. A server that answers nothing for this long
/// is wedged: the fleet stops and every unfinished device counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Whether a read failed by running into [`READ_TIMEOUT`].
fn timed_out(e: &ProtoError) -> bool {
    let kinds = [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut];
    matches!(e, ProtoError::Io(e) if kinds.contains(&e.kind()))
}

/// Fleet shape and budget knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of simulated devices.
    pub devices: usize,
    /// Checkout+checkin rounds each device performs.
    pub rounds: u64,
    /// Dense gradient length (`dim * classes` of the server's model).
    pub dim: usize,
    /// Class count (shapes the per-checkin label histogram).
    pub classes: usize,
    /// Secret the server's token registry derived device tokens from.
    pub auth_secret: u64,
    /// Devices per window (= open connections). Each costs one client fd
    /// here plus one server fd.
    pub max_open: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            devices: 100,
            rounds: 2,
            dim: 12,
            classes: 3,
            auth_secret: 99,
            max_open: 2048,
        }
    }
}

/// What the fleet accomplished.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetReport {
    /// Checkins acknowledged as applied (a dedup replay counts here).
    pub acked: u64,
    /// Checkins acknowledged but not applied (the task had stopped).
    pub rejected: u64,
    /// Successful checkouts.
    pub checkouts: u64,
    /// Devices refused for an exhausted privacy budget (these still count as
    /// finished, not failed — the refusal is the protocol working).
    pub exhausted_devices: u64,
    /// Devices that gave up (transport failures or fatal server errors).
    pub failed_devices: u64,
}

impl FleetReport {
    /// `true` when every device finished every round without failures.
    pub fn clean(&self) -> bool {
        self.failed_devices == 0 && self.exhausted_devices == 0
    }
}

/// One open device: its connection and the iteration of its last checkout.
struct Device {
    session: DeviceSession,
    stream: TcpStream,
    iteration: u64,
}

/// Drives a whole device fleet from the calling thread.
pub struct FleetDriver {
    addr: SocketAddr,
    config: FleetConfig,
    /// Set by the first read timeout: no device connects or reads after it.
    stalled: bool,
    report: FleetReport,
}

impl FleetDriver {
    /// Runs `config.devices` simulated devices against the server at `addr`
    /// and reports what the fleet accomplished. Blocks the calling thread
    /// until every device finished, or until a reply took longer than
    /// `READ_TIMEOUT` (60 s).
    pub fn run(addr: SocketAddr, config: FleetConfig) -> io::Result<FleetReport> {
        let ids: Vec<u64> = (0..config.devices as u64).collect();
        let mut driver = FleetDriver {
            addr,
            config,
            stalled: false,
            report: FleetReport::default(),
        };
        for window in ids.chunks(driver.config.max_open.max(1)) {
            driver.run_window(window);
        }
        Ok(driver.report)
    }

    /// Admits `ids` burst by burst, then runs their rounds in lockstep.
    fn run_window(&mut self, ids: &[u64]) {
        let mut open = Vec::with_capacity(ids.len());
        for burst in ids.chunks(ADMIT_BURST) {
            let mut admitted = burst.iter().filter_map(|&id| self.connect(id)).collect();
            self.exchange(&mut admitted, 0, false);
            open.append(&mut admitted);
        }
        for round in 0..self.config.rounds {
            if round > 0 {
                self.exchange(&mut open, round, false);
            }
            self.exchange(&mut open, round, true);
        }
    }

    /// Opens device `id`'s connection, or counts the device failed.
    fn connect(&mut self, id: u64) -> Option<Device> {
        let stream = (!self.stalled)
            .then(|| TcpStream::connect(self.addr).ok())
            .flatten()
            .filter(|s| s.set_read_timeout(Some(READ_TIMEOUT)).is_ok());
        let Some(stream) = stream else {
            self.fail();
            return None;
        };
        stream.set_nodelay(true).ok();
        Some(Device {
            session: DeviceSession {
                device_id: id,
                token: AuthToken::derive(id, self.config.auth_secret),
            },
            stream,
            iteration: 0,
        })
    }

    /// Writes every device's checkout (or checkin) request, then reads every
    /// reply. Devices that failed or finished leave `devices`.
    fn exchange(&mut self, devices: &mut Vec<Device>, round: u64, checkin: bool) {
        devices.retain_mut(|device| {
            let request = if checkin {
                device.session.checkin_request(self.payload(device, round))
            } else {
                device.session.checkout_request()
            };
            write_message(&mut device.stream, &request).is_ok() || self.fail()
        });
        devices.retain_mut(|device| {
            let reply = if self.stalled {
                None
            } else {
                read_message(&mut device.stream)
                    .inspect_err(|e| self.stalled = timed_out(e))
                    .ok()
            };
            self.on_reply(device, reply, checkin)
        });
    }

    /// The deterministic checkin for `(device, round)`: gradient, labels, and
    /// nonce are pure functions of the pair. Nonces count from 1, like a
    /// [`crowd_core::device::Device`]'s, so every checkin asks for dedup.
    fn payload(&self, device: &Device, round: u64) -> CheckinPayload {
        let id = device.session.device_id;
        let gradient: Vec<f64> = (0..self.config.dim)
            .map(|i| {
                let mix = id
                    .wrapping_mul(31)
                    .wrapping_add(round.wrapping_mul(7))
                    .wrapping_add(i as u64);
                ((mix % 13) as f64 - 6.0) * 1e-3
            })
            .collect();
        let classes = self.config.classes.max(1);
        let mut label_counts = vec![0i64; classes];
        label_counts[(id.wrapping_add(round) % classes as u64) as usize] = 2;
        CheckinPayload {
            device_id: id,
            checkout_iteration: device.iteration,
            nonce: round + 1,
            gradient: Vector::from_vec(gradient).into(),
            num_samples: 2,
            error_count: 1,
            label_counts,
        }
    }

    /// Counts a device's reply. Returns whether the device goes on.
    fn on_reply(&mut self, device: &mut Device, reply: Option<Message>, checkin: bool) -> bool {
        let report = &mut self.report;
        let (tally, goes_on) = match (checkin, reply) {
            (_, None) => (&mut report.failed_devices, false),
            (false, Some(reply)) => match on_checkout(reply) {
                Ok(checked_out) => {
                    device.iteration = checked_out.iteration;
                    (&mut report.checkouts, true)
                }
                Err(NetError::ServerError {
                    code: ErrorCode::BudgetExhausted,
                    ..
                }) => (&mut report.exhausted_devices, false),
                Err(_) => (&mut report.failed_devices, false),
            },
            (true, Some(reply)) => match on_checkin(reply) {
                Ok(CheckinOutcome::BudgetExhausted) => (&mut report.exhausted_devices, false),
                Ok(outcome) if outcome.applied() => (&mut report.acked, true),
                Ok(_) => (&mut report.rejected, true),
                Err(_) => (&mut report.failed_devices, false),
            },
        };
        *tally += 1;
        goes_on
    }

    /// Counts a failed device. Returns `false`, so the device leaves.
    fn fail(&mut self) -> bool {
        self.report.failed_devices += 1;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor_server::ReactorServer;
    use crowd_core::config::ServerConfig;
    use crowd_learning::MulticlassLogistic;
    use crowd_proto::auth::TokenRegistry;

    fn fleet(devices: usize, rounds: u64) -> FleetConfig {
        FleetConfig {
            devices,
            rounds,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fleet_completes_against_reactor_server() {
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(64, 99);
        let handle = ReactorServer::start(model, ServerConfig::new(), tokens).unwrap();
        let report = FleetDriver::run(handle.addr(), fleet(64, 3)).unwrap();
        assert_eq!(report.failed_devices, 0, "{report:?}");
        assert_eq!(report.acked + report.rejected, 64 * 3);
        assert_eq!(report.checkouts, 64 * 3);
        assert!(handle.iteration() > 0);
        assert_eq!(handle.runtime_stats().get("checkins_applied"), 64 * 3);
        handle.shutdown();
    }

    #[test]
    fn admission_window_serves_fleets_larger_than_the_window() {
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(50, 99);
        let handle = ReactorServer::start(model, ServerConfig::new(), tokens).unwrap();
        let config = FleetConfig {
            max_open: 8,
            ..fleet(50, 2)
        };
        let report = FleetDriver::run(handle.addr(), config).unwrap();
        assert_eq!(report.failed_devices, 0, "{report:?}");
        assert_eq!(report.acked + report.rejected, 50 * 2);
        handle.shutdown();
    }

    #[test]
    fn unknown_devices_fail_without_stalling_the_fleet() {
        // The registry only covers devices 0–7; devices 8–15 get Unauthorized
        // and must fail fast while the authorized half completes.
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(8, 99);
        let handle = ReactorServer::start(model, ServerConfig::new(), tokens).unwrap();
        let report = FleetDriver::run(handle.addr(), fleet(16, 2)).unwrap();
        assert_eq!(report.failed_devices, 8, "{report:?}");
        assert_eq!(report.acked + report.rejected, 8 * 2);
        handle.shutdown();
    }

    #[test]
    fn exhausted_budgets_finish_devices_cleanly() {
        let model = MulticlassLogistic::new(4, 3).unwrap();
        let tokens = TokenRegistry::with_derived_tokens(4, 99);
        // One 0.6-ε checkin fits, the second checkout is refused.
        let config = ServerConfig::new().with_budget(0.6, 1.0);
        let handle = ReactorServer::start(model, config, tokens).unwrap();
        let report = FleetDriver::run(handle.addr(), fleet(4, 5)).unwrap();
        assert_eq!(report.failed_devices, 0, "{report:?}");
        assert_eq!(report.exhausted_devices, 4);
        assert!(report.acked >= 4);
        handle.shutdown();
    }
}
