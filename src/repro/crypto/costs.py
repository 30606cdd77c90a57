"""The one price list for cryptographic operations: :data:`CRYPTO_COSTS`.

All values are simulated nanoseconds on one core of the paper's testbed
(8-core Intel Xeon Cascade Lake @ 3.8 GHz).  Sources for the calibration:

* ED25519: vanilla libsodium verifies in ~35–60 µs, but a system that
  sustains 175K client-signature verifications per second on two
  batch-threads (the paper's headline, §5.2) is necessarily running an
  AVX2 batch-verification implementation (ed25519-donna / zedwick-style
  batching amortises to ~10–14 µs per signature).  We calibrate to that
  effective rate — it is the only setting consistent with the paper's own
  throughput and Fig. 9's batch-thread saturation.
* RSA-2048 (OpenSSL): ~1.4–1.7 ms private-key sign, ~30–45 µs verify.
  The enormous sign/verify asymmetry is what produces the paper's "RSA
  costs 125× more latency than CMAC+ED25519" observation.
* CMAC-AES / HMAC with AES-NI: sub-microsecond for protocol-sized messages,
  plus a small per-byte term.
* SHA-256: ~1 ns/byte bulk plus a fixed setup cost.

The absolute numbers matter less than the ratios; EXPERIMENTS.md checks
that the *shape* of Fig. 13 (none > CMAC+ED25519 > ED25519 > RSA) and the
summary multipliers hold.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CryptoCosts:
    """Per-operation simulated costs, in nanoseconds (per-byte terms noted)."""

    # digital signature: ED25519 (batch-verification-amortised, see above)
    ed25519_sign_ns: int = 10_000
    ed25519_verify_ns: int = 10_000

    # digital signature: RSA-2048
    rsa_sign_ns: int = 1_400_000
    rsa_verify_ns: int = 33_000

    # symmetric MAC: CMAC-AES (per token) — fixed + per-byte with AES-NI
    cmac_fixed_ns: int = 450
    cmac_per_byte_ns: float = 0.35

    # hashing: SHA-256 — fixed + per-byte
    sha256_fixed_ns: int = 250
    sha256_per_byte_ns: float = 1.0

    def cmac_ns(self, size_bytes: int) -> int:
        return int(self.cmac_fixed_ns + self.cmac_per_byte_ns * size_bytes)

    def sha256_ns(self, size_bytes: int) -> int:
        return int(self.sha256_fixed_ns + self.sha256_per_byte_ns * size_bytes)


#: The calibration every deployment charges: the signature schemes and
#: :func:`~repro.crypto.hashing.digest_cost` read it directly.
CRYPTO_COSTS = CryptoCosts()
