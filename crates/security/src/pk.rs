//! Public-key scheme cost models.
//!
//! Table II names RSA, ECDSA, CRYSTALS-Dilithium, FALCON and
//! CRYSTALS-KYBER. Implementing lattice cryptography from scratch is out
//! of scope for a continuum simulator, and the experiments only need the
//! *relative cost* of the three security levels — so each scheme is
//! modeled by cycle counts and wire sizes calibrated to the published
//! pqm4 / SUPERCOP benchmark ratios (documented in DESIGN.md). Symmetric
//! and hash primitives, by contrast, are real implementations.

use myrtus_continuum::time::SimDuration;

/// Cost model of one public-key scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct PkScheme {
    /// Scheme name as the paper cites it.
    pub name: &'static str,
    /// Whether the scheme is post-quantum resistant.
    pub pqc: bool,
    /// Cycles to produce a signature (0 when not a signature scheme).
    pub sign_cycles: u64,
    /// Cycles to verify a signature.
    pub verify_cycles: u64,
    /// Cycles to encapsulate a shared secret (0 when not a KEM).
    pub encap_cycles: u64,
    /// Cycles to decapsulate.
    pub decap_cycles: u64,
    /// Public-key size in bytes.
    pub public_key_bytes: u64,
    /// Signature size in bytes (0 when not a signature scheme).
    pub signature_bytes: u64,
    /// KEM ciphertext size in bytes (0 when not a KEM).
    pub ciphertext_bytes: u64,
}

impl PkScheme {
    /// Wall time of `cycles` at `mhz` megacycles per second.
    pub fn time_at(cycles: u64, mhz: f64) -> SimDuration {
        SimDuration::from_micros_f64(cycles as f64 / mhz)
    }

    /// Signature production time at `mhz`.
    pub fn sign_time(&self, mhz: f64) -> SimDuration {
        Self::time_at(self.sign_cycles, mhz)
    }
}

/// RSA-2048 (sign/verify and legacy KEM roles) — ref \[10\].
pub const RSA_2048: PkScheme = PkScheme {
    name: "RSA-2048",
    pqc: false,
    sign_cycles: 5_500_000,
    verify_cycles: 160_000,
    encap_cycles: 160_000,
    decap_cycles: 5_500_000,
    public_key_bytes: 256,
    signature_bytes: 256,
    ciphertext_bytes: 256,
};

/// ECDSA over P-256 (also standing in for ECDH key agreement at the Low
/// level, as Table II lists) — ref \[11\].
pub const ECDSA_P256: PkScheme = PkScheme {
    name: "ECDSA-P256",
    pqc: false,
    sign_cycles: 330_000,
    verify_cycles: 950_000,
    encap_cycles: 330_000,
    decap_cycles: 330_000,
    public_key_bytes: 64,
    signature_bytes: 64,
    ciphertext_bytes: 64,
};

/// CRYSTALS-Dilithium2 — ref \[8\].
pub const DILITHIUM2: PkScheme = PkScheme {
    name: "CRYSTALS-Dilithium2",
    pqc: true,
    sign_cycles: 1_350_000,
    verify_cycles: 380_000,
    encap_cycles: 0,
    decap_cycles: 0,
    public_key_bytes: 1_312,
    signature_bytes: 2_420,
    ciphertext_bytes: 0,
};

/// FALCON-512 — ref \[9\].
pub const FALCON_512: PkScheme = PkScheme {
    name: "FALCON-512",
    pqc: true,
    sign_cycles: 1_200_000,
    verify_cycles: 120_000,
    encap_cycles: 0,
    decap_cycles: 0,
    public_key_bytes: 897,
    signature_bytes: 666,
    ciphertext_bytes: 0,
};

/// CRYSTALS-KYBER-768 — ref \[12\].
pub const KYBER_768: PkScheme = PkScheme {
    name: "CRYSTALS-KYBER-768",
    pqc: true,
    sign_cycles: 0,
    verify_cycles: 0,
    encap_cycles: 210_000,
    decap_cycles: 245_000,
    public_key_bytes: 1_184,
    signature_bytes: 0,
    ciphertext_bytes: 1_088,
};

#[cfg(test)]
#[allow(clippy::assertions_on_constants)]
mod tests {
    use super::*;

    #[test]
    fn pqc_flags_match_table_ii() {
        assert!(DILITHIUM2.pqc && FALCON_512.pqc && KYBER_768.pqc);
        assert!(!RSA_2048.pqc && !ECDSA_P256.pqc);
    }

    #[test]
    fn rsa_sign_is_much_slower_than_verify() {
        assert!(RSA_2048.sign_cycles > 10 * RSA_2048.verify_cycles);
    }

    #[test]
    fn ecdsa_verify_is_slower_than_sign() {
        assert!(ECDSA_P256.verify_cycles > ECDSA_P256.sign_cycles);
    }

    #[test]
    fn pq_signatures_are_larger_than_classical() {
        assert!(DILITHIUM2.signature_bytes > 10 * ECDSA_P256.signature_bytes);
        assert!(FALCON_512.signature_bytes > ECDSA_P256.signature_bytes);
    }

    #[test]
    fn time_scales_inverse_with_frequency() {
        let slow = DILITHIUM2.sign_time(600.0);
        let fast = DILITHIUM2.sign_time(3_000.0);
        assert!(slow.as_micros() > 4 * fast.as_micros());
        assert_eq!(PkScheme::time_at(1_000, 1_000.0), SimDuration::from_micros(1));
    }
}
