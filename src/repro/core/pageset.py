"""Page-set chain entries (Section IV-C, Fig. 5).

Each page set — a group of ``page_set_size`` virtually-contiguous pages —
has one entry in HPE's chain with four fields:

1. a **tag** (the page-set address);
2. a **saturating counter** of touches, capped at 64 ("once the counter
   reaches 64, it does not increase anymore");
3. a **bit vector** with one bit per page, set when the page has faulted
   ("only page faults update the bit vector");
4. a **flag** indicating whether the page set has been divided.

Divided page sets exist as a *primary* (the pages touched before the
counter saturated) and a *secondary* (the remaining pages); both carry the
same numeric tag, so a chain key packs both into one int,
``tag << 1 | part`` (bit 0 set for a secondary).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

#: Saturation cap for the per-page-set touch counter (Section IV-C).
COUNTER_CAP = 64


class SetPart(enum.Enum):
    """Which half of a (possibly divided) page set an entry represents."""

    PRIMARY = "primary"
    SECONDARY = "secondary"


#: Chain key type: ``tag << 1 | part``, part bit 1 for a secondary.
SetKey = int


def primary_key(tag: int) -> SetKey:
    """Return the chain key of the primary entry for ``tag``."""
    return tag << 1


def secondary_key(tag: int) -> SetKey:
    """Return the chain key of the secondary entry for ``tag``."""
    return tag << 1 | 1


@dataclass
class PageSetEntry:
    """One entry of the page set chain."""

    tag: int
    page_set_size: int
    part: SetPart = SetPart.PRIMARY
    #: Saturating touch counter (faults + page-walk hits), capped at 64.
    counter: int = 0
    #: Bit i set ⇔ page at offset i has faulted (been migrated in).
    bit_vector: int = 0
    #: ``True`` once the set has been divided into primary + secondary.
    divided: bool = False
    #: Bit i set ⇔ page at offset i is currently resident in GPU memory.
    resident_mask: int = 0
    #: Offsets this entry owns (all of them until a division restricts it).
    member_mask: int = -1

    def __post_init__(self) -> None:
        if self.member_mask == -1:
            self.member_mask = (1 << self.page_set_size) - 1

    @property
    def key(self) -> SetKey:
        """Chain key for this entry."""
        if self.part is SetPart.SECONDARY:
            return self.tag << 1 | 1
        return self.tag << 1

    def touch(self, count: int = 1) -> None:
        """Record ``count`` touches, saturating at :data:`COUNTER_CAP`."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self.counter = min(COUNTER_CAP, self.counter + count)

    @property
    def saturated(self) -> bool:
        """``True`` once the counter has reached its cap."""
        return self.counter >= COUNTER_CAP

    def mark_faulted(self, offset: int) -> None:
        """Set the bit-vector bit for the page at ``offset``."""
        self._check_offset(offset)
        self.bit_vector |= 1 << offset

    def record_fault(self, offset: int) -> None:
        """One fault intake: touch once, mark faulted and resident.

        Fused form of ``touch(1)`` + :meth:`mark_faulted` +
        :meth:`mark_resident` for the per-fault hot path — identical
        semantics, one offset check instead of two.
        """
        if not (
            0 <= offset < self.page_set_size
            and (self.member_mask >> offset) & 1
        ):
            self._check_offset(offset)  # raises the precise error
        if self.counter < COUNTER_CAP:
            self.counter += 1
        bit = 1 << offset
        self.bit_vector |= bit
        self.resident_mask |= bit

    def mark_resident(self, offset: int) -> None:
        """Record that the page at ``offset`` is resident."""
        self._check_offset(offset)
        self.resident_mask |= 1 << offset

    def mark_evicted(self, offset: int) -> None:
        """Record that the page at ``offset`` was evicted."""
        self._check_offset(offset)
        self.resident_mask &= ~(1 << offset)

    def _check_offset(self, offset: int) -> None:
        if not 0 <= offset < self.page_set_size:
            raise ValueError(
                f"offset {offset} out of range for page set size "
                f"{self.page_set_size}"
            )
        if not (self.member_mask >> offset) & 1:
            raise ValueError(
                f"offset {offset} does not belong to the {self.part.value} "
                f"entry of page set {self.tag:#x}"
            )

    @property
    def populated_count(self) -> int:
        """Number of pages that have faulted into this entry."""
        return bin(self.bit_vector).count("1")

    @property
    def resident_count(self) -> int:
        """Number of this entry's pages currently resident."""
        return bin(self.resident_mask).count("1")

    @property
    def fully_populated(self) -> bool:
        """``True`` when every member page has faulted at least once."""
        return self.bit_vector & self.member_mask == self.member_mask

    def resident_offsets(self) -> list[int]:
        """Offsets of resident pages, in ascending (address) order."""
        mask = self.resident_mask
        return [i for i in range(self.page_set_size) if (mask >> i) & 1]

    def lowest_resident_offset(self) -> int:
        """Smallest resident offset (pages evict in address order).

        Raises
        ------
        ValueError
            If no page of this entry is resident.
        """
        mask = self.resident_mask
        if not mask:
            raise ValueError(f"page set {self.tag:#x} has no resident page")
        return (mask & -mask).bit_length() - 1
