"""Typed message base class with wire-size accounting.

ResilientDB "designed a base class that represents all the messages; to
create a new message type, one has to simply inherit this base class and
add required properties" (§4.8).  We follow that design: every protocol
message subclasses :class:`Message`.

Messages never literally serialise to bytes in the simulation — instead
each type reports its wire size, which the transport uses for bandwidth
occupancy and the crypto layer uses for per-byte costs.  ``signable_bytes``
*is* real, so authentication tokens are computed over actual content and
tampering is detectable in tests.
"""

from __future__ import annotations

import itertools
from typing import Optional

#: Fixed framing overhead per message on the wire: type tag, sender id,
#: view/sequence fields, length prefix — roughly what a compact binary
#: encoding of the paper's C++ message header costs.
WIRE_HEADER_BYTES = 64

_message_ids = itertools.count(1)

#: wire bytes of one authentication token, by scheme name
AUTH_TOKEN_BYTES = {
    "none": 0,
    "ed25519": 64,
    "rsa": 256,
    "cmac-aes": 16,
}


class Message:
    """Base class for everything that crosses the simulated network."""

    #: subclasses override: human-readable protocol tag
    kind: str = "message"

    __slots__ = ("msg_id", "sender", "auth", "created_at", "instance")

    def __init__(self, sender: str):
        self.msg_id = next(_message_ids)
        self.sender = sender
        #: :class:`~repro.crypto.schemes.AuthToken` attached by the sender.
        self.auth = None
        #: simulation time the message object was created (for tracing).
        self.created_at: Optional[int] = None
        #: consensus instance this message belongs to (multi-primary RCC
        #: runs m concurrent instances; single-instance protocols use 0).
        #: Part of the envelope: the codec carries it and the auth token
        #: covers it, so votes cannot be replayed across instances.
        self.instance: int = 0

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------
    def payload_bytes(self) -> int:
        """Size of the type-specific body; subclasses override."""
        return 0

    def auth_bytes(self) -> int:
        if self.auth is None:
            return 0
        # MAC vectors ship only the receiver's own token on each copy.
        return AUTH_TOKEN_BYTES[self.auth.scheme.value]

    def wire_bytes(self) -> int:
        """Total size used for bandwidth and per-byte crypto costs."""
        return WIRE_HEADER_BYTES + self.payload_bytes() + self.auth_bytes()

    # ------------------------------------------------------------------
    # authentication support
    # ------------------------------------------------------------------
    def signable_bytes(self) -> bytes:
        """Canonical bytes covered by the authentication token.

        Subclasses extend :meth:`signable_fields`; the default covers kind
        and sender so cross-type and cross-sender replay fails verification.
        The envelope's instance id is always covered so a vote for one
        consensus instance cannot be replayed into another.
        """
        fields = ":".join(str(field) for field in self.signable_fields())
        return f"{fields}@i{self.instance}".encode("utf-8")

    def signable_fields(self) -> tuple:
        return (self.kind, self.sender)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} #{self.msg_id} from {self.sender}>"
