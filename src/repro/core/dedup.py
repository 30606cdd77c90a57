"""Compact sets of client request keys for the replicas' dedup state.

A primary remembers which ``(sender, request_id)`` keys it has admitted
(so a retransmission of an in-flight request is dropped) and which it has
sequenced (so overload shedding can prove it never drops one); every
replica remembers which it has executed (so a request proposed twice
executes once).  A Python set of key tuples costs ~90 B per request, and
RCC's m primaries each keep one.  Every client group issues request ids
0, 1, 2, …, so the ids one sender has had admitted since the last clear
are dense:
:class:`RequestKeySet` keeps one bit per id, in fixed-size pages per
sender, and admitting a request allocates no object per request.
"""

from __future__ import annotations

from typing import Dict, Sequence

#: ids per bitmap page: 4,096, one 512-byte bytearray
_PAGE_SHIFT = 12
_PAGE_MASK = (1 << _PAGE_SHIFT) - 1
_PAGE_BYTES = 1 << (_PAGE_SHIFT - 3)


class RequestKeySet:
    """A set of ``(sender, request_id)`` keys as paged bitmaps per sender.

    Behaves as the set of key tuples it replaces — ``len`` counts the keys
    present, so a size-triggered clear fires at the same point — but its
    methods take the sender and id apart, so no key tuple is built.
    Memory is one page per 4,096-id block touched since the last
    :meth:`clear`, so a stray far-off id costs one page, not a gap.
    """

    __slots__ = ("_senders", "_count")

    def __init__(self):
        #: sender -> page number -> bitmap page
        self._senders: Dict[str, Dict[int, bytearray]] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def contains(self, sender: str, request_id: int) -> bool:
        pages = self._senders.get(sender)
        if pages is None:
            return False
        page = pages.get(request_id >> _PAGE_SHIFT)
        return page is not None and bool(
            page[(request_id & _PAGE_MASK) >> 3] & (1 << (request_id & 7))
        )

    def add(self, sender: str, request_id: int) -> None:
        pages = self._senders.get(sender)
        if pages is None:
            pages = self._senders[sender] = {}
        number = request_id >> _PAGE_SHIFT
        page = pages.get(number)
        if page is None:
            page = pages[number] = bytearray(_PAGE_BYTES)
        index = (request_id & _PAGE_MASK) >> 3
        mask = 1 << (request_id & 7)
        if not page[index] & mask:
            page[index] |= mask
            self._count += 1

    def add_requests(self, requests: Sequence) -> Sequence:
        """Add the key of each request (anything with ``sender`` and
        ``request_id``); return those whose key was new, in order —
        ``requests`` itself when every one was."""
        senders = self._senders
        fresh = None
        added = position = 0
        for request in requests:
            sender, request_id = request.sender, request.request_id
            pages = senders.get(sender)
            if pages is None:
                pages = senders[sender] = {}
            number = request_id >> _PAGE_SHIFT
            page = pages.get(number)
            if page is None:
                page = pages[number] = bytearray(_PAGE_BYTES)
            index = (request_id & _PAGE_MASK) >> 3
            mask = 1 << (request_id & 7)
            if page[index] & mask:
                if fresh is None:
                    fresh = list(requests[:position])
            else:
                page[index] |= mask
                added += 1
                if fresh is not None:
                    fresh.append(request)
            position += 1
        self._count += added
        return requests if fresh is None else fresh

    def discard(self, sender: str, request_id: int) -> None:
        pages = self._senders.get(sender)
        if pages is None:
            return
        page = pages.get(request_id >> _PAGE_SHIFT)
        if page is None:
            return
        index = (request_id & _PAGE_MASK) >> 3
        mask = 1 << (request_id & 7)
        if page[index] & mask:
            page[index] &= ~mask & 0xFF
            self._count -= 1

    def copy(self) -> "RequestKeySet":
        clone = RequestKeySet()
        clone._senders = {
            sender: {number: bytearray(page) for number, page in pages.items()}
            for sender, pages in self._senders.items()
        }
        clone._count = self._count
        return clone

    def clear(self) -> None:
        self._senders.clear()
        self._count = 0
