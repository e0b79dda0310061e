//! A device model for fault-injection tests: a TFET stand-in whose current
//! goes wrong once its drain falls below half the supply.

use tfet_devices::model::{Caps, DeviceKind, DeviceModel, Polarity};

/// Drain voltage below which [`FaultyDevice`] calls its fault, V: half the
/// 0.8 V supply.
pub const FAULT_BELOW: f64 = 0.4;

/// A TFET stand-in whose current calls `fault` once its drain falls below
/// [`FAULT_BELOW`], and is a tiny leak otherwise.
#[derive(Debug)]
pub struct FaultyDevice {
    pub fault: fn() -> f64,
}

impl DeviceModel for FaultyDevice {
    fn name(&self) -> &str {
        "faulty"
    }
    fn polarity(&self) -> Polarity {
        Polarity::N
    }
    fn kind(&self) -> DeviceKind {
        DeviceKind::Tfet
    }
    fn ids_per_um(&self, _vg: f64, vd: f64, vs: f64) -> f64 {
        if vd < FAULT_BELOW {
            (self.fault)()
        } else {
            1e-12 * (vd - vs)
        }
    }
    fn caps_per_um(&self, _vg: f64, _vd: f64, _vs: f64) -> Caps {
        Caps {
            cgs: 1e-16,
            cgd: 1e-16,
            cdb: 1e-16,
            csb: 1e-16,
        }
    }
}
