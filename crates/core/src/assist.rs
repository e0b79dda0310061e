//! Write-assist and read-assist techniques (paper §4).
//!
//! Every technique is, electrically, a reshaped bias level applied during
//! the operation window — the paper fixes the reshaping at **30 % of V_DD**
//! for fair comparison (§4.1/§4.2), which [`ASSIST_FRACTION`] mirrors (and
//! the assist-level ablation A3 sweeps).
//!
//! Polarity note: the paper's cell uses *p-type* access transistors, which
//! are active-low; "wordline lowering" therefore *strengthens* the access
//! device (gate driven below 0), where a CMOS cell with n-type access would
//! use wordline *raising* for the same effect. [`write_bias`]/[`read_bias`]
//! handle both polarities so the same code drives the CMOS baseline.

use crate::tech::AccessConfig;
use serde::{Deserialize, Serialize};

/// The paper's assist strength: 30 % of V_DD.
pub const ASSIST_FRACTION: f64 = 0.3;

/// The four leading write-assist techniques studied in §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WriteAssist {
    /// Lower the cell supply during the write window — weakens the
    /// cross-coupled inverters.
    VddLowering,
    /// Raise the cell ground during the write window — also weakens the
    /// inverters (and in particular the pull-down devices, the paper's
    /// "main obstacle during write" for inward access).
    GndRaising,
    /// Overdrive the wordline beyond its active level — strengthens the
    /// access transistors (lowering for p-type access, raising for n-type).
    WordlineLowering,
    /// Raise the high bitline above V_DD — increases the conducting access
    /// transistor's drive.
    BitlineRaising,
}

impl WriteAssist {
    /// All four techniques, in the paper's order.
    pub const ALL: [WriteAssist; 4] = [
        WriteAssist::VddLowering,
        WriteAssist::GndRaising,
        WriteAssist::WordlineLowering,
        WriteAssist::BitlineRaising,
    ];

    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            WriteAssist::VddLowering => "VDD lowering",
            WriteAssist::GndRaising => "GND raising",
            WriteAssist::WordlineLowering => "wordline lowering",
            WriteAssist::BitlineRaising => "bitline raising",
        }
    }
}

/// The four leading read-assist techniques studied in §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReadAssist {
    /// Raise the cell supply during the read window — strengthens the
    /// inverters.
    VddRaising,
    /// Lower the cell ground during the read window — strengthens the
    /// inverters; the technique the paper selects for its final design.
    GndLowering,
    /// Back off the wordline from its active level — weakens the access
    /// transistors (raising for p-type access, lowering for n-type).
    WordlineRaising,
    /// Precharge/clamp the bitlines below V_DD — reduces both the gate and
    /// drain drive of the access transistors.
    BitlineLowering,
}

impl ReadAssist {
    /// All four techniques, in the paper's order.
    pub const ALL: [ReadAssist; 4] = [
        ReadAssist::VddRaising,
        ReadAssist::GndLowering,
        ReadAssist::WordlineRaising,
        ReadAssist::BitlineLowering,
    ];

    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            ReadAssist::VddRaising => "VDD raising",
            ReadAssist::GndLowering => "GND lowering",
            ReadAssist::WordlineRaising => "wordline raising",
            ReadAssist::BitlineLowering => "bitline lowering",
        }
    }
}

/// Bias levels in force during a write operation's assist window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteBias {
    /// Cell supply rail level, V.
    pub vdd_level: f64,
    /// Cell ground rail level, V.
    pub vss_level: f64,
    /// Wordline active level, V.
    pub wl_active: f64,
    /// High-bitline drive level, V (the side pushing the new value in).
    pub bl_high: f64,
}

/// Computes the write-window bias levels for an optional assist at strength
/// `frac·vdd`.
pub fn write_bias(
    assist: Option<WriteAssist>,
    vdd: f64,
    access: AccessConfig,
    frac: f64,
) -> WriteBias {
    let delta = frac * vdd;
    let mut b = WriteBias {
        vdd_level: vdd,
        vss_level: 0.0,
        wl_active: access.wl_active(vdd),
        bl_high: vdd,
    };
    match assist {
        None => {}
        Some(WriteAssist::VddLowering) => b.vdd_level = vdd - delta,
        Some(WriteAssist::GndRaising) => b.vss_level = delta,
        Some(WriteAssist::WordlineLowering) => {
            // Overdrive in the activating direction.
            b.wl_active = if access.is_p_type() {
                -delta
            } else {
                vdd + delta
            };
        }
        Some(WriteAssist::BitlineRaising) => b.bl_high = vdd + delta,
    }
    b
}

/// Bias levels in force during a read operation's assist window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadBias {
    /// Cell supply rail level, V.
    pub vdd_level: f64,
    /// Cell ground rail level, V.
    pub vss_level: f64,
    /// Wordline active level, V.
    pub wl_active: f64,
    /// Bitline precharge level, V (for inward/CMOS cells; outward cells
    /// precharge low and are not part of the §4 assist study).
    pub bl_precharge: f64,
}

/// Computes the read-window bias levels for an optional assist at strength
/// `frac·vdd`.
pub fn read_bias(
    assist: Option<ReadAssist>,
    vdd: f64,
    access: AccessConfig,
    frac: f64,
) -> ReadBias {
    let delta = frac * vdd;
    let mut b = ReadBias {
        vdd_level: vdd,
        vss_level: 0.0,
        wl_active: access.wl_active(vdd),
        bl_precharge: vdd,
    };
    match assist {
        None => {}
        Some(ReadAssist::VddRaising) => b.vdd_level = vdd + delta,
        Some(ReadAssist::GndLowering) => b.vss_level = -delta,
        Some(ReadAssist::WordlineRaising) => {
            // Back off in the de-activating direction.
            b.wl_active = if access.is_p_type() {
                delta
            } else {
                vdd - delta
            };
        }
        Some(ReadAssist::BitlineLowering) => b.bl_precharge = vdd - delta,
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    const VDD: f64 = 0.8;

    #[test]
    fn no_assist_is_nominal() {
        let b = write_bias(None, VDD, AccessConfig::InwardP, ASSIST_FRACTION);
        assert_eq!(b.vdd_level, VDD);
        assert_eq!(b.vss_level, 0.0);
        assert_eq!(b.wl_active, 0.0, "p-access is active-low");
        assert_eq!(b.bl_high, VDD);
    }

    #[test]
    fn write_assists_move_the_right_rail() {
        let f = ASSIST_FRACTION;
        let b = write_bias(
            Some(WriteAssist::VddLowering),
            VDD,
            AccessConfig::InwardP,
            f,
        );
        assert!((b.vdd_level - 0.56).abs() < 1e-12);
        let b = write_bias(Some(WriteAssist::GndRaising), VDD, AccessConfig::InwardP, f);
        assert!((b.vss_level - 0.24).abs() < 1e-12);
        let b = write_bias(
            Some(WriteAssist::BitlineRaising),
            VDD,
            AccessConfig::InwardP,
            f,
        );
        assert!((b.bl_high - 1.04).abs() < 1e-12);
    }

    #[test]
    fn wordline_overdrive_follows_access_polarity() {
        let f = ASSIST_FRACTION;
        // p-access: active-low, overdrive goes below ground.
        let b = write_bias(
            Some(WriteAssist::WordlineLowering),
            VDD,
            AccessConfig::InwardP,
            f,
        );
        assert!((b.wl_active + 0.24).abs() < 1e-12);
        // n-access: active-high, overdrive goes above VDD.
        let b = write_bias(
            Some(WriteAssist::WordlineLowering),
            VDD,
            AccessConfig::InwardN,
            f,
        );
        assert!((b.wl_active - 1.04).abs() < 1e-12);
    }

    #[test]
    fn read_assists_move_the_right_rail() {
        let f = ASSIST_FRACTION;
        let b = read_bias(Some(ReadAssist::VddRaising), VDD, AccessConfig::InwardP, f);
        assert!((b.vdd_level - 1.04).abs() < 1e-12);
        let b = read_bias(Some(ReadAssist::GndLowering), VDD, AccessConfig::InwardP, f);
        assert!((b.vss_level + 0.24).abs() < 1e-12);
        let b = read_bias(
            Some(ReadAssist::BitlineLowering),
            VDD,
            AccessConfig::InwardP,
            f,
        );
        assert!((b.bl_precharge - 0.56).abs() < 1e-12);
    }

    #[test]
    fn wordline_backoff_follows_access_polarity() {
        let f = ASSIST_FRACTION;
        // p-access: active level 0, backed off to +0.24.
        let b = read_bias(
            Some(ReadAssist::WordlineRaising),
            VDD,
            AccessConfig::InwardP,
            f,
        );
        assert!((b.wl_active - 0.24).abs() < 1e-12);
        // n-access: active level VDD, backed off to 0.56.
        let b = read_bias(
            Some(ReadAssist::WordlineRaising),
            VDD,
            AccessConfig::InwardN,
            f,
        );
        assert!((b.wl_active - 0.56).abs() < 1e-12);
    }

    #[test]
    fn labels_and_all_lists() {
        assert_eq!(WriteAssist::ALL.len(), 4);
        assert_eq!(ReadAssist::ALL.len(), 4);
        for a in WriteAssist::ALL {
            assert!(!a.label().is_empty());
        }
        for a in ReadAssist::ALL {
            assert!(!a.label().is_empty());
        }
        assert_eq!(ReadAssist::GndLowering.label(), "GND lowering");
    }
}
