//! Lightweight hash alternatives of Table II's Low level.
//!
//! Besides ASCON-Hash (implemented for real in
//! [`ascon`](crate::ascon)), the paper lists QUARK, spongent and PHOTON
//! (refs \[14\]–\[16\]) as lightweight hashing options "considering
//! components capabilities". Those sponge constructions target *silicon
//! area*, not software speed, so they are represented by cost models —
//! gate-equivalents, digest sizes and software cycles/byte calibrated to
//! the published figures — plus a selector that picks the lightest
//! function fitting a component's area/security budget.

/// Cost model of one lightweight hash function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LightweightHash {
    /// Function name as cited.
    pub name: &'static str,
    /// Digest size in bits.
    pub digest_bits: u32,
    /// Hardware footprint in gate equivalents (smallest published
    /// serialized implementation).
    pub gate_equivalents: u32,
    /// Software cost in cycles per byte on an 8/32-bit MCU class core.
    pub sw_cycles_per_byte: f64,
    /// Claimed preimage security in bits.
    pub preimage_bits: u32,
}

/// ASCON-Hash (the NIST LWC selection; also implemented for real).
pub const ASCON_HASH: LightweightHash = LightweightHash {
    name: "ASCON-Hash",
    digest_bits: 256,
    gate_equivalents: 7_000,
    sw_cycles_per_byte: 20.0,
    preimage_bits: 128,
};

/// U-QUARK (ref \[14\]).
pub const QUARK: LightweightHash = LightweightHash {
    name: "U-QUARK",
    digest_bits: 136,
    gate_equivalents: 1_379,
    sw_cycles_per_byte: 620.0,
    preimage_bits: 128,
};

/// spongent-128 (ref \[15\]).
pub const SPONGENT: LightweightHash = LightweightHash {
    name: "spongent-128",
    digest_bits: 128,
    gate_equivalents: 1_060,
    sw_cycles_per_byte: 960.0,
    preimage_bits: 120,
};

/// PHOTON-128 (ref \[16\]).
pub const PHOTON: LightweightHash = LightweightHash {
    name: "PHOTON-128",
    digest_bits: 128,
    gate_equivalents: 1_122,
    sw_cycles_per_byte: 440.0,
    preimage_bits: 112,
};

/// The Table II Low-level hash menu, preferred order (standardized
/// first).
pub const MENU: [LightweightHash; 4] = [ASCON_HASH, QUARK, PHOTON, SPONGENT];

/// Picks the preferred hash whose hardware footprint fits
/// `max_gate_equivalents` and whose preimage security meets
/// `min_preimage_bits`; `None` when nothing fits.
pub fn select(max_gate_equivalents: u32, min_preimage_bits: u32) -> Option<LightweightHash> {
    MENU.iter()
        .copied()
        .filter(|h| {
            h.gate_equivalents <= max_gate_equivalents && h.preimage_bits >= min_preimage_bits
        })
        .min_by_key(|h| h.gate_equivalents)
}

impl LightweightHash {
    /// Software time to hash `bytes` at `mhz`.
    pub fn sw_time(&self, bytes: u64, mhz: f64) -> myrtus_continuum::time::SimDuration {
        myrtus_continuum::time::SimDuration::from_micros_f64(
            bytes as f64 * self.sw_cycles_per_byte / mhz,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn menu_matches_the_paper_row() {
        let names: Vec<&str> = MENU.iter().map(|h| h.name).collect();
        assert!(names.contains(&"ASCON-Hash"));
        assert!(names.contains(&"U-QUARK"));
        assert!(names.contains(&"spongent-128"));
        assert!(names.contains(&"PHOTON-128"));
    }

    #[test]
    fn sponges_are_smaller_but_slower_than_ascon() {
        for h in [QUARK, SPONGENT, PHOTON] {
            assert!(h.gate_equivalents < ASCON_HASH.gate_equivalents, "{}", h.name);
            assert!(h.sw_cycles_per_byte > ASCON_HASH.sw_cycles_per_byte, "{}", h.name);
        }
    }

    #[test]
    fn selection_honors_both_budgets() {
        // A roomy tag chip: smallest footprint with ≥120-bit preimage.
        let pick = select(1_500, 120).expect("fits");
        assert_eq!(pick.name, "spongent-128");
        // Demand 128-bit preimage: spongent/photon drop out.
        let pick = select(1_500, 128).expect("fits");
        assert_eq!(pick.name, "U-QUARK");
        // Plenty of area: the smallest still wins by footprint.
        let pick = select(100_000, 128).expect("fits");
        assert_eq!(pick.name, "U-QUARK");
        // Nothing fits a 500-GE budget.
        assert!(select(500, 100).is_none());
    }

    #[test]
    fn software_time_scales() {
        let fast = ASCON_HASH.sw_time(1_024, 600.0);
        let slow = SPONGENT.sw_time(1_024, 600.0);
        assert!(slow.as_micros() > 10 * fast.as_micros());
    }
}
