"""Signature schemes with broadcast-aware cost accounting.

A crucial asymmetry drives the paper's crypto lesson (§3, §5.6):

* A **digital signature** (ED25519, RSA) is computed once and every receiver
  can verify the same token — broadcast sign cost is O(1) — and it provides
  non-repudiation.
* A **MAC** (CMAC-AES) must be computed per receiver under the pairwise key
  — broadcast sign cost is O(n) — but each token is ~50–3000× cheaper, so
  for the n ≤ 32 deployments studied, MACs win decisively wherever
  non-repudiation is not needed (no replica forwards another replica's
  messages in PBFT, so it is not needed between replicas).

:meth:`SignatureScheme.authenticate` computes the real token(s) and
:meth:`SignatureScheme.check` verifies for real; neither prices anything.
The simulated time is :meth:`SignatureScheme.sign_cost` and
:meth:`SignatureScheme.verify_cost`, read from
:data:`~repro.crypto.costs.CRYPTO_COSTS`, which the pipeline stages charge
to their CPU threads.
"""

from __future__ import annotations

import enum
import hmac
import hashlib
from dataclasses import FrozenInstanceError
from typing import Dict, Iterable, Optional

from repro.crypto.costs import CRYPTO_COSTS
from repro.crypto.keys import KeyStore


class SchemeName(str, enum.Enum):
    """The four signing configurations of the paper's Fig. 13."""

    NULL = "none"
    ED25519 = "ed25519"
    RSA = "rsa"
    CMAC_AES = "cmac-aes"


class AuthToken:
    """Authentication material attached to a message (immutable).

    A digital signature carries one ``universal`` token that every
    receiver verifies; a MAC vector carries ``tokens``, each receiver's
    MAC under its pairwise key.  An unauthenticated (null-scheme) token
    carries neither.  Slotted, because every in-flight request holds one.
    """

    __slots__ = ("scheme", "signer", "universal", "tokens")
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        scheme: SchemeName,
        signer: str,
        tokens: Optional[Dict[str, bytes]] = None,
        universal: Optional[bytes] = None,
    ):
        setter = object.__setattr__
        setter(self, "scheme", scheme)
        setter(self, "signer", signer)
        setter(self, "universal", universal)
        setter(self, "tokens", tokens)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return AuthToken, self._fields()

    def _fields(self) -> tuple:
        return (self.scheme, self.signer, self.tokens, self.universal)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (
            f"AuthToken(scheme={self.scheme!r}, signer={self.signer!r}, "
            f"tokens={self.tokens!r}, universal={self.universal!r})"
        )

    def for_receiver(self, receiver: str) -> Optional[bytes]:
        if self.universal is not None:
            return self.universal
        if self.tokens is None:
            return None
        return self.tokens.get(receiver)


class SignatureScheme:
    """Base class; concrete schemes fill in costs and token derivation."""

    name: SchemeName = SchemeName.NULL
    #: Whether a third party can verify a token it did not receive directly
    #: (digital signatures: yes; MACs: no).  PBFT view-change and Zyzzyva
    #: commit certificates need this from *client* messages only.
    non_repudiation: bool = False

    def __init__(self, keystore: KeyStore):
        self.keystore = keystore

    # -- cost model ----------------------------------------------------
    def sign_cost(self, size_bytes: int, receivers: int = 1) -> int:
        """Simulated ns to authenticate one message for ``receivers``."""
        raise NotImplementedError

    def verify_cost(self, size_bytes: int) -> int:
        """Simulated ns for one receiver to verify."""
        raise NotImplementedError

    # -- real tokens ---------------------------------------------------
    def authenticate(
        self, data: bytes, signer: str, receivers: Iterable[str]
    ) -> AuthToken:
        """The token for ``data`` from ``signer`` to ``receivers``."""
        raise NotImplementedError

    def check(
        self, data: bytes, token: Optional[AuthToken], signer: str, receiver: str
    ) -> bool:
        """Whether ``token`` authenticates ``data`` from ``signer`` to
        ``receiver``."""
        raise NotImplementedError


class NullScheme(SignatureScheme):
    """No authentication at all — the paper's upper-bound configuration.

    Attains the highest throughput but "does not fulfill the minimal
    requirements of a permissioned blockchain system" (§5.6).
    """

    name = SchemeName.NULL

    def sign_cost(self, size_bytes: int, receivers: int = 1) -> int:
        return 0

    def verify_cost(self, size_bytes: int) -> int:
        return 0

    def authenticate(self, data, signer, receivers):
        return AuthToken(self.name, signer)

    def check(self, data, token, signer, receiver):
        return True


class _DigitalSignatureScheme(SignatureScheme):
    """Shared machinery for the (simulated-cost) digital-signature schemes.

    The token is a real HMAC under the signer's private seed, so forged or
    tampered messages fail verification in tests; the asymmetric-crypto
    *time* comes from the cost table.
    """

    non_repudiation = True
    _sign_ns: int = 0
    _verify_ns: int = 0

    def sign_cost(self, size_bytes: int, receivers: int = 1) -> int:
        # one signature serves every receiver; hashing the payload to the
        # signing digest is charged per byte
        return self._sign_ns + CRYPTO_COSTS.sha256_ns(size_bytes)

    def verify_cost(self, size_bytes: int) -> int:
        return self._verify_ns + CRYPTO_COSTS.sha256_ns(size_bytes)

    def authenticate(self, data, signer, receivers):
        seed = self.keystore.signing_seed(signer)
        token = hmac.new(seed, data, hashlib.sha256).digest()
        return AuthToken(self.name, signer, universal=token)

    def check(self, data, token, signer, receiver):
        if token is None or token.signer != signer:
            return False
        expected = hmac.new(
            self.keystore.signing_seed(signer), data, hashlib.sha256
        ).digest()
        supplied = token.for_receiver(receiver)
        return supplied is not None and hmac.compare_digest(expected, supplied)


class Ed25519Scheme(_DigitalSignatureScheme):
    """ED25519 digital signatures — the paper's client-side default."""

    name = SchemeName.ED25519
    _sign_ns = CRYPTO_COSTS.ed25519_sign_ns
    _verify_ns = CRYPTO_COSTS.ed25519_verify_ns


class RsaScheme(_DigitalSignatureScheme):
    """RSA-2048 digital signatures — dramatically slower to sign."""

    name = SchemeName.RSA
    _sign_ns = CRYPTO_COSTS.rsa_sign_ns
    _verify_ns = CRYPTO_COSTS.rsa_verify_ns


class CmacAesScheme(SignatureScheme):
    """CMAC+AES pairwise MACs — the paper's replica-to-replica default.

    Broadcast requires one MAC per receiver (cost O(n)) but each MAC is
    cheap; no non-repudiation."""

    name = SchemeName.CMAC_AES
    non_repudiation = False

    def sign_cost(self, size_bytes: int, receivers: int = 1) -> int:
        return CRYPTO_COSTS.cmac_ns(size_bytes) * max(1, receivers)

    def verify_cost(self, size_bytes: int) -> int:
        return CRYPTO_COSTS.cmac_ns(size_bytes)

    def authenticate(self, data, signer, receivers):
        tokens: Dict[str, bytes] = {}
        for receiver in receivers:
            key = self.keystore.pair_key(signer, receiver)
            tokens[receiver] = hmac.new(key, data, hashlib.sha256).digest()[:16]
        return AuthToken(self.name, signer, tokens)

    def check(self, data, token, signer, receiver):
        if token is None or token.signer != signer:
            return False
        supplied = token.for_receiver(receiver)
        if supplied is None:
            return False
        key = self.keystore.pair_key(signer, receiver)
        expected = hmac.new(key, data, hashlib.sha256).digest()[:16]
        return hmac.compare_digest(expected, supplied)


_SCHEMES = {
    SchemeName.NULL: NullScheme,
    SchemeName.ED25519: Ed25519Scheme,
    SchemeName.RSA: RsaScheme,
    SchemeName.CMAC_AES: CmacAesScheme,
}


def make_scheme(name: SchemeName, keystore: KeyStore) -> SignatureScheme:
    """Factory for the scheme named ``name``."""
    try:
        return _SCHEMES[SchemeName(name)](keystore)
    except KeyError:
        raise ValueError(f"unknown signature scheme {name!r}") from None
