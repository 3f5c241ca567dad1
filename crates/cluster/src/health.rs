//! Hardware health monitoring and failure prediction (§6.5).
//!
//! "For high performance computing, there are usually some hardware
//! monitors to monitor the temperature, fan speed, voltage, and power
//! supplies in the system.  These can be facilitated for hardware
//! failure prediction."

use simx86::sync::Mutex;

/// One sample from the platform sensors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorReading {
    /// CPU/board temperature in °C.
    pub temp_c: f64,
    /// Fan speed in RPM.
    pub fan_rpm: f64,
    /// Supply voltage in volts (nominal 12.0).
    pub voltage: f64,
    /// Corrected DRAM errors since the last sample.
    pub dram_ce: u32,
}

impl Default for SensorReading {
    fn default() -> Self {
        SensorReading {
            temp_c: 45.0,
            fan_rpm: 4000.0,
            voltage: 12.0,
            dram_ce: 0,
        }
    }
}

/// Assessment of the node's hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthStatus {
    /// Everything nominal.
    Healthy,
    /// Out of nominal band but not yet predictive of failure.
    Degraded(String),
    /// Failure predicted: evacuate now (§6.5's trigger).
    FailurePredicted(String),
}

// Prediction thresholds (the policy of a Leangsuksun-style "failure
// predictive and policy-based high availability strategy").

/// Degraded above this temperature.
const TEMP_WARN: f64 = 70.0;
/// Failure predicted above this temperature.
const TEMP_CRIT: f64 = 85.0;
/// Degraded below this fan speed.
const FAN_WARN: f64 = 2000.0;
/// Failure predicted below this fan speed.
const FAN_CRIT: f64 = 800.0;
/// Allowed relative voltage deviation before warning.
const VOLT_WARN_FRAC: f64 = 0.05;
/// Failure predicted beyond this relative deviation.
const VOLT_CRIT_FRAC: f64 = 0.10;
/// Corrected-error rate that predicts imminent uncorrectable ones.
const DRAM_CE_CRIT: u32 = 16;

/// The monitor: keeps the latest reading and a short trend window.
pub struct HealthMonitor {
    history: Mutex<Vec<SensorReading>>,
}

/// Samples kept for trend analysis.
const WINDOW: usize = 16;

impl HealthMonitor {
    /// A monitor primed with one nominal reading.
    pub fn new() -> HealthMonitor {
        HealthMonitor {
            history: Mutex::new(vec![SensorReading::default()]),
        }
    }

    /// Feed a sensor sample.
    pub fn inject(&self, reading: SensorReading) {
        let mut h = self.history.lock();
        h.push(reading);
        let len = h.len();
        if len > WINDOW {
            h.drain(..len - WINDOW);
        }
    }

    /// Latest sample.
    pub fn latest(&self) -> SensorReading {
        *self.history.lock().last().expect("primed with one reading")
    }

    /// Bridge from the fault-injection engine: fold a detected fault
    /// into the sensor stream so the §6.5 failure predictor sees it.
    /// Memory bit-flips are what ECC scrubbing reports as corrected
    /// errors, so each one bumps `dram_ce` on a fresh sample; a
    /// sustained bit-flip campaign therefore trends the monitor through
    /// [`HealthStatus::Degraded`] into
    /// [`HealthStatus::FailurePredicted`], exactly the evacuation
    /// trigger the paper describes.  Other classes are handled by the
    /// [watchdog](crate::watchdog) directly and leave the sensors
    /// untouched.
    pub fn observe_fault(&self, class: faultgen::FaultClass) {
        if class == faultgen::FaultClass::MemBitFlip {
            let mut reading = self.latest();
            reading.dram_ce += 1;
            self.inject(reading);
        }
    }

    /// Assess the node: thresholds on the latest sample plus a simple
    /// temperature-trend predictor (three consecutive rising samples
    /// already past the warning line predict failure).
    pub fn assess(&self) -> HealthStatus {
        let h = self.history.lock();
        let r = *h.last().expect("primed");
        let volt_dev = (r.voltage - 12.0).abs() / 12.0;

        if r.temp_c >= TEMP_CRIT {
            return HealthStatus::FailurePredicted(format!("temperature {:.0}°C", r.temp_c));
        }
        if r.fan_rpm <= FAN_CRIT {
            return HealthStatus::FailurePredicted(format!("fan at {:.0} RPM", r.fan_rpm));
        }
        if volt_dev >= VOLT_CRIT_FRAC {
            return HealthStatus::FailurePredicted(format!("voltage {:.2} V", r.voltage));
        }
        if r.dram_ce >= DRAM_CE_CRIT {
            return HealthStatus::FailurePredicted(format!("{} corrected DRAM errors", r.dram_ce));
        }
        // Trend: rising temperature already past the warning line.
        if h.len() >= 3 {
            let tail = &h[h.len() - 3..];
            if tail.windows(2).all(|w| w[1].temp_c > w[0].temp_c) && r.temp_c >= TEMP_WARN {
                return HealthStatus::FailurePredicted(format!(
                    "temperature trending up through {:.0}°C",
                    r.temp_c
                ));
            }
        }
        if r.temp_c >= TEMP_WARN {
            return HealthStatus::Degraded(format!("temperature {:.0}°C", r.temp_c));
        }
        if r.fan_rpm <= FAN_WARN {
            return HealthStatus::Degraded(format!("fan at {:.0} RPM", r.fan_rpm));
        }
        if volt_dev >= VOLT_WARN_FRAC {
            return HealthStatus::Degraded(format!("voltage {:.2} V", r.voltage));
        }
        HealthStatus::Healthy
    }
}

impl Default for HealthMonitor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_is_healthy() {
        let m = HealthMonitor::new();
        assert_eq!(m.assess(), HealthStatus::Healthy);
    }

    #[test]
    fn threshold_grades() {
        let m = HealthMonitor::new();
        m.inject(SensorReading {
            temp_c: 72.0,
            ..Default::default()
        });
        assert!(matches!(m.assess(), HealthStatus::Degraded(_)));
        m.inject(SensorReading {
            temp_c: 90.0,
            ..Default::default()
        });
        assert!(matches!(m.assess(), HealthStatus::FailurePredicted(_)));
    }

    #[test]
    fn fan_voltage_and_dram_predictions() {
        let m = HealthMonitor::new();
        m.inject(SensorReading {
            fan_rpm: 500.0,
            ..Default::default()
        });
        assert!(matches!(m.assess(), HealthStatus::FailurePredicted(_)));
        m.inject(SensorReading {
            voltage: 10.0,
            ..Default::default()
        });
        assert!(matches!(m.assess(), HealthStatus::FailurePredicted(_)));
        m.inject(SensorReading {
            dram_ce: 99,
            ..Default::default()
        });
        assert!(matches!(m.assess(), HealthStatus::FailurePredicted(_)));
    }

    #[test]
    fn rising_trend_predicts_before_critical() {
        let m = HealthMonitor::new();
        for t in [68.0, 71.0, 74.0] {
            m.inject(SensorReading {
                temp_c: t,
                ..Default::default()
            });
        }
        // 74 < 85 (critical) but the trend through the warning line
        // predicts failure.
        assert!(matches!(m.assess(), HealthStatus::FailurePredicted(_)));
    }

    #[test]
    fn bit_flips_accumulate_into_a_failure_prediction() {
        let m = HealthMonitor::new();
        for _ in 0..DRAM_CE_CRIT {
            m.observe_fault(faultgen::FaultClass::MemBitFlip);
        }
        assert!(matches!(m.assess(), HealthStatus::FailurePredicted(_)));
        // Non-memory classes do not perturb the sensors.
        let before = m.latest();
        m.observe_fault(faultgen::FaultClass::DeviceTimeout);
        assert_eq!(m.latest(), before);
    }

    #[test]
    fn history_window_bounded() {
        let m = HealthMonitor::new();
        for i in 0..100 {
            m.inject(SensorReading {
                temp_c: 40.0 + (i % 3) as f64,
                ..Default::default()
            });
        }
        assert!(m.history.lock().len() <= WINDOW);
    }
}
