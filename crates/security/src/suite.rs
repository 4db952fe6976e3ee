//! The three MYRTUS security levels of paper Table II.
//!
//! | Level | Encryption | Authentication | Key exchange | Hashing |
//! |---|---|---|---|---|
//! | High (PQC)   | AES-256    | Dilithium / Falcon | Kyber | SHA-512 |
//! | Medium       | AES-128    | RSA / ECDSA        | RSA   | SHA-256 |
//! | Low (light)  | ASCON-128  | ECDSA              | ECDSA | ASCON-Hash |
//!
//! [`CipherSuite`] binds the four roles together, offering *real*
//! symmetric encryption and hashing plus cost-model accounting for the
//! public-key operations, so experiments measure genuine relative
//! overhead between the levels.

use crate::aes::{Aes, AesVariant};
use crate::ascon::{ascon128_open, ascon128_seal, ascon_hash, AuthError};
use crate::pk::{PkScheme, DILITHIUM2, ECDSA_P256, KYBER_768, RSA_2048};
use crate::sha2::{hmac_sha256, sha256, sha512};

/// The envisioned security levels (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SecurityLevel {
    /// Lightweight non-PQC considering component capabilities.
    Low,
    /// Non-PQC but suitable for current threats.
    Medium,
    /// PQC resistant.
    High,
}

impl SecurityLevel {
    /// All levels, weakest first.
    pub const ALL: [SecurityLevel; 3] =
        [SecurityLevel::Low, SecurityLevel::Medium, SecurityLevel::High];

    /// Numeric tier (0 = low … 2 = high), matching the registry field.
    pub fn tier(self) -> u8 {
        match self {
            SecurityLevel::Low => 0,
            SecurityLevel::Medium => 1,
            SecurityLevel::High => 2,
        }
    }

    /// Level from a numeric tier, clamping out-of-range values to High.
    pub fn from_tier(tier: u8) -> SecurityLevel {
        match tier {
            0 => SecurityLevel::Low,
            1 => SecurityLevel::Medium,
            _ => SecurityLevel::High,
        }
    }

    /// The concrete suite for this level.
    pub fn suite(self) -> CipherSuite {
        match self {
            SecurityLevel::High => CipherSuite {
                level: self,
                encryption: SymmetricAlg::Aes256,
                authentication: &DILITHIUM2,
                key_exchange: &KYBER_768,
                hash: HashAlg::Sha512,
            },
            SecurityLevel::Medium => CipherSuite {
                level: self,
                encryption: SymmetricAlg::Aes128,
                authentication: &RSA_2048,
                key_exchange: &RSA_2048,
                hash: HashAlg::Sha256,
            },
            SecurityLevel::Low => CipherSuite {
                level: self,
                encryption: SymmetricAlg::Ascon128,
                authentication: &ECDSA_P256,
                key_exchange: &ECDSA_P256,
                hash: HashAlg::AsconHash,
            },
        }
    }
}

impl std::fmt::Display for SecurityLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SecurityLevel::Low => "low",
            SecurityLevel::Medium => "medium",
            SecurityLevel::High => "high",
        };
        f.write_str(s)
    }
}

/// Symmetric encryption role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymmetricAlg {
    /// AES-256 in CTR mode with an HMAC-SHA-256 tag (encrypt-then-MAC).
    Aes256,
    /// AES-128 in CTR mode with an HMAC-SHA-256 tag.
    Aes128,
    /// ASCON-128 AEAD (natively authenticated).
    Ascon128,
}

impl SymmetricAlg {
    /// Key length in bytes.
    pub fn key_len(self) -> usize {
        match self {
            SymmetricAlg::Aes256 => 32,
            SymmetricAlg::Aes128 | SymmetricAlg::Ascon128 => 16,
        }
    }

    /// Modeled software cost per byte, cycles (table-based AES without
    /// AES-NI vs. bitsliced ASCON on a 64-bit core).
    pub fn cycles_per_byte(self) -> f64 {
        match self {
            SymmetricAlg::Aes256 => 28.0,
            SymmetricAlg::Aes128 => 21.0,
            SymmetricAlg::Ascon128 => 11.0,
        }
    }
}

/// Hashing role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashAlg {
    /// SHA-512.
    Sha512,
    /// SHA-256.
    Sha256,
    /// ASCON-Hash.
    AsconHash,
}

impl HashAlg {
    /// Digest size in bytes.
    pub fn digest_len(self) -> usize {
        match self {
            HashAlg::Sha512 => 64,
            HashAlg::Sha256 | HashAlg::AsconHash => 32,
        }
    }

    /// Modeled software cost per byte, cycles.
    pub fn cycles_per_byte(self) -> f64 {
        match self {
            HashAlg::Sha512 => 12.0,
            HashAlg::Sha256 => 15.0,
            HashAlg::AsconHash => 20.0,
        }
    }
}

/// Handshake cost summary (mutual authentication + key encapsulation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandshakeCost {
    /// CPU cycles on the initiator.
    pub initiator_cycles: u64,
    /// CPU cycles on the responder.
    pub responder_cycles: u64,
    /// Extra bytes exchanged on the wire.
    pub wire_bytes: u64,
}

/// A bound Table II suite with real symmetric/hash operations and
/// public-key cost accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct CipherSuite {
    /// The level this suite implements.
    pub level: SecurityLevel,
    /// Symmetric encryption role.
    pub encryption: SymmetricAlg,
    /// Digital-signature scheme.
    pub authentication: &'static PkScheme,
    /// Key-encapsulation scheme.
    pub key_exchange: &'static PkScheme,
    /// Hash role.
    pub hash: HashAlg,
}

const AEAD_TAG_LEN: usize = 16;

impl CipherSuite {
    /// Authenticated encryption of `plaintext`. `key` must be
    /// [`SymmetricAlg::key_len`] bytes; `nonce` is 12 bytes (AES-CTR) of
    /// which ASCON uses an extended 16-byte form internally.
    ///
    /// # Panics
    ///
    /// Panics if the key length does not match the suite.
    pub fn seal(&self, key: &[u8], nonce: &[u8; 12], ad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        assert_eq!(key.len(), self.encryption.key_len(), "suite key length");
        match self.encryption {
            SymmetricAlg::Aes256 | SymmetricAlg::Aes128 => {
                let variant = if self.encryption == SymmetricAlg::Aes256 {
                    AesVariant::Aes256
                } else {
                    AesVariant::Aes128
                };
                let aes = Aes::new(variant, key).expect("length checked");
                let mut buf = plaintext.to_vec();
                aes.ctr_apply(nonce, &mut buf);
                // Encrypt-then-MAC over nonce ‖ ad ‖ ciphertext.
                let mut mac_input = Vec::with_capacity(12 + ad.len() + buf.len());
                mac_input.extend_from_slice(nonce);
                mac_input.extend_from_slice(ad);
                mac_input.extend_from_slice(&buf);
                let tag = hmac_sha256(key, &mac_input);
                buf.extend_from_slice(&tag[..AEAD_TAG_LEN]);
                buf
            }
            SymmetricAlg::Ascon128 => {
                let mut k = [0u8; 16];
                k.copy_from_slice(key);
                let mut n = [0u8; 16];
                n[..12].copy_from_slice(nonce);
                ascon128_seal(&k, &n, ad, plaintext)
            }
        }
    }

    /// Authenticated decryption.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] on tampering or a wrong key/nonce/AD.
    ///
    /// # Panics
    ///
    /// Panics if the key length does not match the suite.
    pub fn open(
        &self,
        key: &[u8],
        nonce: &[u8; 12],
        ad: &[u8],
        ciphertext: &[u8],
    ) -> Result<Vec<u8>, AuthError> {
        assert_eq!(key.len(), self.encryption.key_len(), "suite key length");
        match self.encryption {
            SymmetricAlg::Aes256 | SymmetricAlg::Aes128 => {
                if ciphertext.len() < AEAD_TAG_LEN {
                    return Err(AuthError);
                }
                let (ct, tag) = ciphertext.split_at(ciphertext.len() - AEAD_TAG_LEN);
                let mut mac_input = Vec::with_capacity(12 + ad.len() + ct.len());
                mac_input.extend_from_slice(nonce);
                mac_input.extend_from_slice(ad);
                mac_input.extend_from_slice(ct);
                let expect = hmac_sha256(key, &mac_input);
                let mut diff = 0u8;
                for (a, b) in expect[..AEAD_TAG_LEN].iter().zip(tag.iter()) {
                    diff |= a ^ b;
                }
                if diff != 0 {
                    return Err(AuthError);
                }
                let variant = if self.encryption == SymmetricAlg::Aes256 {
                    AesVariant::Aes256
                } else {
                    AesVariant::Aes128
                };
                let aes = Aes::new(variant, key).expect("length checked");
                let mut buf = ct.to_vec();
                aes.ctr_apply(nonce, &mut buf);
                Ok(buf)
            }
            SymmetricAlg::Ascon128 => {
                let mut k = [0u8; 16];
                k.copy_from_slice(key);
                let mut n = [0u8; 16];
                n[..12].copy_from_slice(nonce);
                ascon128_open(&k, &n, ad, ciphertext)
            }
        }
    }

    /// Hashes `data` with the suite's hash role.
    pub fn digest(&self, data: &[u8]) -> Vec<u8> {
        match self.hash {
            HashAlg::Sha512 => sha512(data).to_vec(),
            HashAlg::Sha256 => sha256(data).to_vec(),
            HashAlg::AsconHash => ascon_hash(data).to_vec(),
        }
    }

    /// Cost of a mutual-authentication handshake: the initiator signs and
    /// encapsulates; the responder verifies, signs and decapsulates; both
    /// verify the peer's certificate signature.
    pub fn handshake_cost(&self) -> HandshakeCost {
        let auth = self.authentication;
        let kem = self.key_exchange;
        let initiator_cycles = auth.sign_cycles + 2 * auth.verify_cycles + kem.encap_cycles;
        let responder_cycles = auth.sign_cycles + 2 * auth.verify_cycles + kem.decap_cycles;
        let wire_bytes = 2 * (auth.public_key_bytes + auth.signature_bytes)
            + kem.public_key_bytes
            + kem.ciphertext_bytes;
        HandshakeCost { initiator_cycles, responder_cycles, wire_bytes }
    }

    /// Modeled CPU cycles to protect `bytes` of payload (encrypt + hash).
    pub fn record_cycles(&self, bytes: u64) -> u64 {
        ((self.encryption.cycles_per_byte() + self.hash.cycles_per_byte()) * bytes as f64) as u64
    }

    /// Per-record wire overhead in bytes (tag + per-record framing).
    pub fn record_overhead_bytes(&self) -> u64 {
        AEAD_TAG_LEN as u64 + 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_for(s: &CipherSuite) -> Vec<u8> {
        vec![0x5Au8; s.encryption.key_len()]
    }

    #[test]
    fn all_levels_seal_and_open() {
        for level in SecurityLevel::ALL {
            let suite = level.suite();
            let key = key_for(&suite);
            let nonce = [3u8; 12];
            let ct = suite.seal(&key, &nonce, b"hdr", b"vital signs");
            assert!(ct.len() > b"vital signs".len(), "{level}: ciphertext carries a tag");
            let pt = suite.open(&key, &nonce, b"hdr", &ct).expect("authentic");
            assert_eq!(pt, b"vital signs", "{level}");
        }
    }

    #[test]
    fn all_levels_detect_tampering() {
        for level in SecurityLevel::ALL {
            let suite = level.suite();
            let key = key_for(&suite);
            let nonce = [3u8; 12];
            let mut ct = suite.seal(&key, &nonce, b"", b"payload");
            let n = ct.len();
            ct[n - 1] ^= 0x80;
            assert_eq!(suite.open(&key, &nonce, b"", &ct), Err(AuthError), "{level}");
        }
    }

    #[test]
    fn table_ii_role_assignments() {
        let high = SecurityLevel::High.suite();
        assert_eq!(high.encryption, SymmetricAlg::Aes256);
        assert_eq!(high.authentication.name, "CRYSTALS-Dilithium2");
        assert_eq!(high.key_exchange.name, "CRYSTALS-KYBER-768");
        assert_eq!(high.hash, HashAlg::Sha512);
        assert!(high.authentication.pqc && high.key_exchange.pqc);

        let medium = SecurityLevel::Medium.suite();
        assert_eq!(medium.encryption, SymmetricAlg::Aes128);
        assert_eq!(medium.hash, HashAlg::Sha256);

        let low = SecurityLevel::Low.suite();
        assert_eq!(low.encryption, SymmetricAlg::Ascon128);
        assert_eq!(low.hash, HashAlg::AsconHash);
        assert!(!low.authentication.pqc);
    }

    #[test]
    fn handshake_cost_ranks_high_heaviest_on_wire() {
        let hc: Vec<HandshakeCost> =
            SecurityLevel::ALL.iter().map(|l| l.suite().handshake_cost()).collect();
        // Wire bytes: PQC certificates dominate.
        assert!(hc[2].wire_bytes > hc[1].wire_bytes);
        assert!(hc[1].wire_bytes > hc[0].wire_bytes);
        // Low level is cheapest for the initiator CPU.
        assert!(hc[0].initiator_cycles < hc[1].initiator_cycles);
    }

    #[test]
    fn record_cycles_rank_low_cheapest() {
        let c: Vec<u64> =
            SecurityLevel::ALL.iter().map(|l| l.suite().record_cycles(1_000_000)).collect();
        assert!(c[0] < c[1], "ascon+ascon-hash beats aes128+sha256");
        assert!(c[1] < c[2], "aes128 beats aes256+sha512 per byte? no — check ordering");
    }

    #[test]
    fn digest_lengths_match_roles() {
        assert_eq!(SecurityLevel::High.suite().digest(b"x").len(), 64);
        assert_eq!(SecurityLevel::Medium.suite().digest(b"x").len(), 32);
        assert_eq!(SecurityLevel::Low.suite().digest(b"x").len(), 32);
    }

    #[test]
    fn tier_round_trips() {
        for l in SecurityLevel::ALL {
            assert_eq!(SecurityLevel::from_tier(l.tier()), l);
        }
        assert_eq!(SecurityLevel::from_tier(99), SecurityLevel::High);
        assert!(SecurityLevel::High > SecurityLevel::Low);
    }

    #[test]
    fn cross_level_ciphertexts_do_not_open() {
        let high = SecurityLevel::High.suite();
        let low = SecurityLevel::Low.suite();
        let nonce = [1u8; 12];
        let ct = low.seal(&[1u8; 16], &nonce, b"", b"msg");
        // Different algorithms entirely; High's open must reject.
        assert!(high.open(&[1u8; 32], &nonce, b"", &ct).is_err());
    }
}
