"""Tests for signature schemes: real integrity + modelled cost."""

import copy
import pickle

import pytest

from repro.consensus.messages import Prepare
from repro.crypto import (
    CRYPTO_COSTS,
    CmacAesScheme,
    Ed25519Scheme,
    KeyStore,
    NullScheme,
    RsaScheme,
    SchemeName,
    digest_bytes,
    digest_cost,
    make_scheme,
)
from repro.crypto.keys import UnknownIdentityError
from repro.net.message import AUTH_TOKEN_BYTES, WIRE_HEADER_BYTES


@pytest.fixture
def keystore():
    store = KeyStore(system_seed=11)
    for identity in ("r0", "r1", "r2", "client0"):
        store.register(identity)
    return store


# ----------------------------------------------------------------------
# key store
# ----------------------------------------------------------------------
def test_keystore_deterministic_per_seed():
    a = KeyStore(1)
    a.register("r0")
    b = KeyStore(1)
    b.register("r0")
    assert a.signing_seed("r0") == b.signing_seed("r0")
    c = KeyStore(2)
    c.register("r0")
    assert a.signing_seed("r0") != c.signing_seed("r0")


def test_pair_key_symmetric(keystore):
    assert keystore.pair_key("r0", "r1") == keystore.pair_key("r1", "r0")
    assert keystore.pair_key("r0", "r1") != keystore.pair_key("r0", "r2")


def test_unknown_identity_raises(keystore):
    with pytest.raises(UnknownIdentityError):
        keystore.signing_seed("intruder")
    with pytest.raises(UnknownIdentityError):
        keystore.pair_key("r0", "intruder")


def test_register_idempotent(keystore):
    seed = keystore.signing_seed("r0")
    keystore.register("r0")
    assert keystore.signing_seed("r0") == seed


# ----------------------------------------------------------------------
# round-trips and tamper detection
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "scheme_cls", [NullScheme, Ed25519Scheme, RsaScheme, CmacAesScheme]
)
def test_roundtrip_verifies(keystore, scheme_cls):
    scheme = scheme_cls(keystore)
    token = scheme.authenticate(b"hello", "r0", ["r1", "r2"])
    assert scheme.check(b"hello", token, "r0", "r1") is True
    assert scheme.sign_cost(5, receivers=2) >= 0 and scheme.verify_cost(5) >= 0


@pytest.mark.parametrize("scheme_cls", [Ed25519Scheme, RsaScheme, CmacAesScheme])
def test_tampered_payload_fails(keystore, scheme_cls):
    scheme = scheme_cls(keystore)
    token = scheme.authenticate(b"hello", "r0", ["r1"])
    assert not scheme.check(b"HELLO", token, "r0", "r1")


@pytest.mark.parametrize("scheme_cls", [Ed25519Scheme, RsaScheme, CmacAesScheme])
def test_wrong_claimed_signer_fails(keystore, scheme_cls):
    scheme = scheme_cls(keystore)
    token = scheme.authenticate(b"hello", "r0", ["r1"])
    assert not scheme.check(b"hello", token, "r2", "r1")


def test_mac_token_is_per_receiver(keystore):
    scheme = CmacAesScheme(keystore)
    token = scheme.authenticate(b"msg", "r0", ["r1"])
    # r2 was not a receiver: it has no token to check
    assert not scheme.check(b"msg", token, "r0", "r2")


def test_digital_signature_carries_one_token_for_every_receiver(keystore):
    scheme = Ed25519Scheme(keystore)
    token = scheme.authenticate(b"msg", "r0", ["r1", "r2"])
    assert token.tokens is None
    assert token.for_receiver("r1") == token.universal
    assert token.for_receiver("r2") == token.universal
    assert scheme.check(b"msg", token, "r0", "client0")


def test_auth_token_is_a_compact_immutable_record(keystore):
    token = CmacAesScheme(keystore).authenticate(b"msg", "r0", ["r1"])
    assert not hasattr(token, "__dict__")
    assert token.for_receiver("r1") == token.tokens["r1"]
    assert token.universal is None
    with pytest.raises(AttributeError):
        token.signer = "r2"
    assert copy.deepcopy(token) == token
    assert pickle.loads(pickle.dumps(token)) == token
    unsigned = NullScheme(keystore).authenticate(b"m", "r0", ["r1"])
    assert unsigned.for_receiver("r1") is None


def test_missing_token_fails(keystore):
    scheme = Ed25519Scheme(keystore)
    assert scheme.check(b"msg", None, "r0", "r1") is False
    # the receiver still spends verification effort: a stage charges
    # verify_cost before it learns the verdict
    assert scheme.verify_cost(len(b"msg")) > 0


def test_null_scheme_accepts_anything(keystore):
    scheme = NullScheme(keystore)
    assert scheme.check(b"anything", None, "whoever", "r1") is True
    assert scheme.verify_cost(len(b"anything")) == 0
    assert scheme.sign_cost(len(b"anything"), receivers=4) == 0


# ----------------------------------------------------------------------
# cost model shape
# ----------------------------------------------------------------------
def test_digital_signature_broadcast_cost_is_flat(keystore):
    scheme = Ed25519Scheme(keystore)
    assert scheme.sign_cost(100, receivers=1) == scheme.sign_cost(100, receivers=32)


def test_mac_broadcast_cost_scales_with_receivers(keystore):
    scheme = CmacAesScheme(keystore)
    assert scheme.sign_cost(100, receivers=32) == 32 * scheme.sign_cost(100, receivers=1)


def test_relative_costs_match_calibration(keystore):
    """The orderings that produce the paper's Fig. 13 shape."""
    ed = Ed25519Scheme(keystore)
    rsa = RsaScheme(keystore)
    mac = CmacAesScheme(keystore)
    size = 256
    assert rsa.sign_cost(size) > 10 * ed.sign_cost(size)
    assert ed.sign_cost(size) > 10 * mac.sign_cost(size)
    assert ed.verify_cost(size) > 10 * mac.verify_cost(size)


def test_mac_cost_includes_per_byte_term(keystore):
    scheme = CmacAesScheme(keystore)
    assert scheme.sign_cost(100_000) > scheme.sign_cost(100)


def test_mac_sign_cost_prices_one_token_per_receiver(keystore):
    scheme = CmacAesScheme(keystore)
    two = scheme.authenticate(b"x", "r0", ["r1", "r2"])
    one = scheme.authenticate(b"x", "r0", ["r1"])
    assert (len(two.tokens), len(one.tokens)) == (2, 1)
    assert scheme.sign_cost(1, receivers=len(two.tokens)) == 2 * scheme.sign_cost(
        1, receivers=len(one.tokens)
    )


@pytest.mark.parametrize("name", list(SchemeName), ids=lambda name: name.value)
def test_authenticated_message_ships_one_token_of_its_scheme(keystore, name):
    message = Prepare("r0", 0, 1, "d")
    message.auth = make_scheme(name, keystore).authenticate(
        message.signable_bytes(), "r0", ["r1", "r2"]
    )
    assert message.wire_bytes() == (
        WIRE_HEADER_BYTES + message.payload_bytes() + AUTH_TOKEN_BYTES[name.value]
    )


# ----------------------------------------------------------------------
# hashing and factory
# ----------------------------------------------------------------------
def test_digest_is_real_sha256():
    import hashlib

    assert digest_bytes(b"abc") == hashlib.sha256(b"abc").hexdigest()


def test_digest_cost_scales_with_size():
    assert digest_cost(64_000) > digest_cost(64)
    assert digest_cost(0) == CRYPTO_COSTS.sha256_fixed_ns


def test_make_scheme_factory(keystore):
    for name, cls in [
        (SchemeName.NULL, NullScheme),
        (SchemeName.ED25519, Ed25519Scheme),
        (SchemeName.RSA, RsaScheme),
        (SchemeName.CMAC_AES, CmacAesScheme),
    ]:
        assert isinstance(make_scheme(name, keystore), cls)
    # string values accepted too
    assert isinstance(make_scheme("ed25519", keystore), Ed25519Scheme)
    with pytest.raises(ValueError):
        make_scheme("post-quantum", keystore)


def test_non_repudiation_flags(keystore):
    assert Ed25519Scheme(keystore).non_repudiation
    assert RsaScheme(keystore).non_repudiation
    assert not CmacAesScheme(keystore).non_repudiation
    assert not NullScheme(keystore).non_repudiation
