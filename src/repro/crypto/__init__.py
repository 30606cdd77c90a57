"""Cryptographic toolkit: signature schemes, MACs, digests and cost models.

The paper's §5.6 experiment (Fig. 13) compares four signing configurations —
no signatures, ED25519, RSA, and CMAC+AES between replicas with ED25519 at
clients — and its §6 lesson is that digital signatures are only needed where
non-repudiation matters (client requests), while replica-to-replica traffic
can use MACs.

Two concerns are deliberately separated here:

* **Integrity** is real: digests are real SHA-256, MAC tokens are real HMACs
  over the message bytes, and signature tokens are HMACs under the signer's
  private seed.  Tampering with a message in tests genuinely fails
  verification.  (True asymmetric primitives are unavailable offline; the
  key registry plays the role of the PKI.  The framework enforces that a
  node can only sign under its own identity, which is the property our
  simulated adversaries could otherwise violate.)
* **Cost** is modelled: one table, :data:`~repro.crypto.costs.CRYPTO_COSTS`,
  calibrated against published single-core latencies of libsodium/OpenSSL
  on Cascade Lake-class CPUs, prices every operation.  A scheme's
  ``sign_cost``/``verify_cost`` and :func:`digest_cost` read it, and the
  pipeline stages charge those prices to their CPU threads; the token
  operations themselves return no cost.  These costs, not the token
  bytes, are what the paper's experiments measure.
"""

from repro.crypto.costs import CRYPTO_COSTS, CryptoCosts
from repro.crypto.hashing import digest_bytes, digest_cost
from repro.crypto.keys import KeyStore
from repro.crypto.schemes import (
    CmacAesScheme,
    Ed25519Scheme,
    NullScheme,
    RsaScheme,
    SchemeName,
    SignatureScheme,
    make_scheme,
)

__all__ = [
    "CRYPTO_COSTS",
    "CmacAesScheme",
    "CryptoCosts",
    "Ed25519Scheme",
    "KeyStore",
    "NullScheme",
    "RsaScheme",
    "SchemeName",
    "SignatureScheme",
    "digest_bytes",
    "digest_cost",
    "make_scheme",
]
