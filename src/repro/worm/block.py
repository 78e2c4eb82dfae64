"""Fixed-capacity WORM blocks with append-only data and write-once slots.

A :class:`Block` models one disk block on the paper's extended WORM device.
It has two regions:

* a **data region** that grows strictly by appends — once a byte has been
  written it can never change; and
* an optional array of **write-once pointer slots** reserved at block
  creation time (used by jump indexes, Section 4.3, where "the pointer
  assignment operation can also be implemented as an append operation").

Both regions enforce WORM semantics themselves, so even code holding a
direct reference to a block — including the adversary in
:mod:`repro.adversary` — cannot rewrite committed bytes.  That mirrors the
threat model: Mala may issue any *legal* device operation, and the device is
trusted to refuse illegal ones.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.errors import BlockBoundsError, WormViolationError

_NO_SLOTS: Tuple[Optional[int], ...] = ()


class Block:
    """One append-only block with optional write-once pointer slots.

    Parameters
    ----------
    capacity:
        Usable size of the data region in bytes.
    slot_count:
        Number of write-once pointer slots reserved alongside the data
        region.  Slots are addressed ``0 .. slot_count - 1`` and each may be
        assigned exactly once.
    block_no:
        Position of this block within its file; informational only.
    """

    __slots__ = ("capacity", "block_no", "_data", "_slots", "_slots_set")

    def __init__(self, capacity: int, *, slot_count: int = 0, block_no: int = 0):
        if capacity <= 0:
            raise ValueError(f"block capacity must be positive, got {capacity}")
        if slot_count < 0:
            raise ValueError(f"slot_count must be non-negative, got {slot_count}")
        self.capacity = capacity
        self.block_no = block_no
        self._data = bytearray()
        # Most blocks reserve no slots; they share one empty tuple
        # instead of allocating an empty list each.
        self._slots: Sequence[Optional[int]] = (
            [None] * slot_count if slot_count else _NO_SLOTS
        )
        self._slots_set = 0

    # ------------------------------------------------------------------
    # data region
    # ------------------------------------------------------------------
    @property
    def fill(self) -> int:
        """Number of committed data bytes."""
        return len(self._data)

    @property
    def remaining(self) -> int:
        """Free data bytes left in the block."""
        return self.capacity - len(self._data)

    def is_full(self) -> bool:
        """Whether the data region has no free space left."""
        return len(self._data) >= self.capacity

    def append(self, payload: bytes) -> int:
        """Append ``payload`` to the data region and return its offset.

        Raises
        ------
        BlockBoundsError
            If the payload does not fit in the remaining space.  Callers are
            expected to check :attr:`remaining` and roll to a fresh block.
        """
        if len(payload) > self.remaining:
            raise BlockBoundsError(
                f"append of {len(payload)} bytes exceeds remaining "
                f"{self.remaining} bytes in block {self.block_no}"
            )
        offset = len(self._data)
        self._data.extend(payload)
        return offset

    def read(self, offset: int = 0, length: Optional[int] = None) -> bytes:
        """Read ``length`` committed bytes starting at ``offset``.

        With no arguments, returns the whole committed data region.
        """
        if length is None:
            length = len(self._data) - offset
        if offset < 0 or length < 0 or offset + length > len(self._data):
            raise BlockBoundsError(
                f"read [{offset}, {offset + length}) outside committed "
                f"region [0, {len(self._data)}) of block {self.block_no}"
            )
        return bytes(self._data[offset : offset + length])

    # ------------------------------------------------------------------
    # write-once pointer slots
    # ------------------------------------------------------------------
    @property
    def slot_count(self) -> int:
        """Number of pointer slots reserved in this block."""
        return len(self._slots)

    @property
    def slots_set(self) -> int:
        """Number of pointer slots that have been assigned."""
        return self._slots_set

    def set_slot(self, slot_no: int, value: int) -> None:
        """Assign write-once slot ``slot_no`` to ``value``.

        Raises
        ------
        WormViolationError
            If the slot was already assigned — rewriting a pointer is
            exactly the manipulation WORM must prevent.
        BlockBoundsError
            If ``slot_no`` is out of range.
        """
        if not 0 <= slot_no < len(self._slots):
            raise BlockBoundsError(
                f"slot {slot_no} out of range [0, {len(self._slots)}) "
                f"in block {self.block_no}"
            )
        if self._slots[slot_no] is not None:
            raise WormViolationError(
                f"slot {slot_no} of block {self.block_no} is already set to "
                f"{self._slots[slot_no]}; WORM slots are write-once"
            )
        self._slots[slot_no] = value
        self._slots_set += 1

    def get_slot(self, slot_no: int) -> Optional[int]:
        """Return the value of slot ``slot_no``, or ``None`` if unset."""
        if not 0 <= slot_no < len(self._slots):
            raise BlockBoundsError(
                f"slot {slot_no} out of range [0, {len(self._slots)}) "
                f"in block {self.block_no}"
            )
        return self._slots[slot_no]

    def slots(self) -> Tuple[Optional[int], ...]:
        """Snapshot of all slots (``None`` where unset)."""
        return tuple(self._slots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Block(no={self.block_no}, fill={self.fill}/{self.capacity}, "
            f"slots={self._slots_set}/{len(self._slots)})"
        )
